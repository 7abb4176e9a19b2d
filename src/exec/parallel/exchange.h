#ifndef ORDOPT_EXEC_PARALLEL_EXCHANGE_H_
#define ORDOPT_EXEC_PARALLEL_EXCHANGE_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/operators.h"
#include "exec/parallel/morsel.h"
#include "exec/spill.h"
#include "optimizer/plan.h"

namespace ordopt {

/// Morsel-parallel exchange: runs `exchange_workers` copies of the child
/// subtree (the parallelized chain) on worker threads, each pulling morsels
/// from a shared MorselScheduler, and recombines their batch streams on the
/// consuming thread.
///
/// Recombination is a k-way merge of the per-worker streams on the plan
/// node's `sort_spec` (the chain's sort key extended with — or consisting
/// only of — the hidden provenance column). Because each provenance value
/// belongs to exactly one worker, key ties never span streams and the
/// merged output reproduces the *serial* row sequence exactly; the chain's
/// order property crosses the exchange intact. The merge moves runs, not
/// rows (see NextBatchImpl), and strips the provenance column while moving
/// them out (RowBatch::MoveRangeFrom), handing whole worker batches over by
/// swap. This is the engine's only form of intra-query parallelism, and
/// the only place rows cross threads. A drained item (its batch columns,
/// key arena and offsets) goes back to the worker that made it, which
/// refills it, so a steady stream reuses its memory instead of allocating
/// on one thread and freeing on another.
///
/// Isolation: every worker runs with a private RuntimeMetrics and a
/// private SpillManager (run files are process-uniquely named), against
/// the query's shared thread-safe QueryGuard. Worker metrics, spill
/// managers' counters, and per-operator stats are merged into the query's
/// instances at Close, along with each worker thread's CPU busy time
/// (RuntimeMetrics::worker_busy_ns_*).
///
/// Cancellation: a tripped guard (limit, cancel, poison, injected fault)
/// ends every worker's stream cooperatively; Close unblocks any producer
/// waiting on queue backpressure and joins all threads, so no exit path
/// leaks a thread, a buffered batch, or a worker's spill charge.
class ExchangeOp : public Operator {
 public:
  /// Builds the worker operator trees immediately (so EXPLAIN ANALYZE's
  /// plan-node/operator registry pairing sees them in post-order before
  /// this exchange itself is registered). `node` is the kExchange plan
  /// node; `required_columns` is the column requirement computed at the
  /// exchange, passed through to the workers' scans for pruning. A build
  /// failure poisons the guard; BuildOperatorTree surfaces it.
  ExchangeOp(const PlanNode& node, ExecContext ctx,
             const ColumnSet* required_columns);
  ~ExchangeOp() override;

  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// One queued batch plus its rows' normalized merge keys,
  /// encoded worker-side so the consuming thread's comparator is a plain
  /// memcmp into the arena.
  struct Item {
    RowBatch batch;
    std::string keys;
    std::vector<size_t> offsets;  ///< size()+1 offsets into `keys`

    std::string_view Key(int64_t row) const {
      const size_t r = static_cast<size_t>(row);
      return std::string_view(keys.data() + offsets[r],
                              offsets[r + 1] - offsets[r]);
    }
  };

  struct Stream {
    std::deque<Item> queue;
    /// Drained items the consumer handed back; the worker refills them
    /// instead of allocating, so batch memory stays on the worker's side.
    std::vector<Item> spares;
    bool done = false;
  };

  struct Worker {
    std::unique_ptr<RuntimeMetrics> metrics;
    std::unique_ptr<SpillManager> spill;  ///< null when the query has none
    std::vector<std::pair<const PlanNode*, Operator*>> registry;
    OperatorPtr root;
    std::thread thread;
    int64_t busy_ns = 0;  ///< thread CPU time across open/drain/close
  };

  /// Max batches buffered per worker stream before its producer blocks.
  static constexpr size_t kMaxQueuedBatches = 4;
  /// Max drained items kept per stream for reuse (they cost memory).
  static constexpr size_t kMaxSpareItems = 1;

  void WorkerMain(size_t index);
  /// Hands the drained heads_[index] back to its worker, then loads the
  /// stream's next item into it, blocking on an empty queue; false when
  /// the stream is done (or the exchange closed).
  bool LoadHead(size_t index);
  void JoinWorkers();
  void MergeWorkerAccounting();

  MorselScheduler morsels_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Positions of the merge-key columns / provenance column in the worker
  /// layout, and the worker-layout positions this exchange emits.
  std::vector<int> key_positions_;
  std::vector<bool> key_descending_;
  int prov_pos_ = -1;
  std::vector<size_t> emit_cols_;

  std::mutex mu_;
  std::condition_variable produced_cv_;  ///< item pushed or stream done
  std::condition_variable consumed_cv_;  ///< queue space freed or closed
  std::vector<Stream> streams_;
  bool closed_ = false;
  bool started_ = false;
  bool accounted_ = false;

  // Merge consumer state (consuming thread only).
  std::vector<Item> heads_;
  std::vector<bool> head_valid_;
  std::vector<int64_t> cursor_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_PARALLEL_EXCHANGE_H_
