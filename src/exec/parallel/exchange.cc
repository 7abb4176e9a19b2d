#include "exec/parallel/exchange.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <utility>

#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/sort_key.h"

namespace ordopt {

namespace {

/// CPU time consumed by the calling thread. The bench's speedup model is
/// built from these: on a machine with fewer cores than workers, wall
/// clock cannot show the parallelism, but per-thread CPU time still
/// measures how the work divided.
int64_t ThreadCpuNs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

ExchangeOp::ExchangeOp(const PlanNode& node, ExecContext ctx,
                       const ColumnSet* required_columns)
    : Operator(ctx) {
  const int worker_count = std::max(node.exchange_workers, 1);
  const PlanRef& chain = node.children[0];
  for (int i = 0; i < worker_count; ++i) {
    auto w = std::make_unique<Worker>();
    w->metrics = std::make_unique<RuntimeMetrics>();
    if (ctx.spill != nullptr) {
      w->spill =
          std::make_unique<SpillManager>(ctx.spill->config(), w->metrics.get());
    }
    ExecContext wctx;
    wctx.metrics = w->metrics.get();
    wctx.guard = ctx.guard;
    wctx.spill = w->spill.get();
    wctx.collect_op_stats = ctx.collect_op_stats;
    wctx.op_registry = ctx.op_registry != nullptr ? &w->registry : nullptr;
    wctx.verify_orders = ctx.verify_orders;
    wctx.batch_rows = ctx.batch_rows;
    wctx.morsels = &morsels_;
    Result<OperatorPtr> built =
        BuildOperatorTree(chain, wctx, required_columns);
    if (!built.ok()) {
      ctx_.Poison(built.status());
      workers_.clear();
      return;
    }
    w->root = std::move(built).value_unsafe();
    workers_.push_back(std::move(w));
  }
  // Surface worker 0's (plan node, operator) pairs in the main registry so
  // EXPLAIN ANALYZE pairs the chain's plan nodes with operators that
  // actually ran them, in the same post-order a serial build would use;
  // the other workers' stats fold into these at Close.
  if (ctx.op_registry != nullptr) {
    for (const auto& pair : workers_[0]->registry) {
      ctx.op_registry->push_back(pair);
    }
  }

  const std::vector<ColumnId>& child_layout = workers_[0]->root->layout();
  for (size_t i = 0; i < child_layout.size(); ++i) {
    if (child_layout[i] == ProvenanceColumnId()) {
      prov_pos_ = static_cast<int>(i);
      continue;
    }
    emit_cols_.push_back(i);
    layout_.push_back(child_layout[i]);
  }
  ExprEvaluator eval(child_layout);
  for (const OrderElement& e : node.sort_spec) {
    int p = eval.PositionOf(e.col);
    if (p < 0) {
      ctx_.Poison(Status::Internal(
          StrFormat("exchange merge column %s missing from worker layout",
                    DefaultColumnName(e.col).c_str())));
      return;
    }
    key_positions_.push_back(p);
    key_descending_.push_back(e.dir == SortDirection::kDescending);
  }
  streams_.resize(workers_.size());
}

ExchangeOp::~ExchangeOp() {
  // Backstop for abnormal teardown (Close not reached): unblock and join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  consumed_cv_.notify_all();
  JoinWorkers();
}

void ExchangeOp::OpenImpl() {
  if (workers_.empty() || !ctx_.GuardOk()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    streams_.assign(workers_.size(), Stream());
  }
  heads_.clear();
  heads_.resize(workers_.size());
  head_valid_.assign(workers_.size(), false);
  cursor_.assign(workers_.size(), 0);
  started_ = true;
  // Workers open, drain, and close their trees entirely on their own
  // threads; blocking work (a chain Sort's input collection) overlaps
  // across workers from the first Open on.
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread(&ExchangeOp::WorkerMain, this, i);
  }
}

void ExchangeOp::WorkerMain(size_t index) {
  Worker& w = *workers_[index];
  const int64_t start_ns = ThreadCpuNs();
  w.root->Open();
  RowBatch batch;
  Item item;  // filled here; a drained one once the consumer returns it
  while (ctx_.GuardOk()) {
    if (!w.root->NextBatch(&batch)) break;
    if (batch.empty()) continue;  // consumers rely on non-empty items
    // The item's old columns become the chain's next output batch.
    swap(item.batch, batch);
    // Encode the merge keys worker-side: the consuming thread's k-way
    // comparator is then a plain memcmp into this arena.
    const int64_t n = item.batch.size();
    item.keys.clear();
    item.offsets.clear();
    item.offsets.reserve(static_cast<size_t>(n) + 1);
    item.offsets.push_back(0);
    for (int64_t r = 0; r < n; ++r) {
      AppendNormalizedKey(item.batch, r, key_positions_, key_descending_,
                          &item.keys);
      item.offsets.push_back(item.keys.size());
    }
    std::unique_lock<std::mutex> lock(mu_);
    consumed_cv_.wait(lock, [&] {
      return closed_ || streams_[index].queue.size() < kMaxQueuedBatches;
    });
    if (closed_) break;
    Stream& s = streams_[index];
    s.queue.push_back(std::move(item));
    if (s.spares.empty()) {
      item = Item();
    } else {
      item = std::move(s.spares.back());
      s.spares.pop_back();
    }
    lock.unlock();
    produced_cv_.notify_all();
  }
  w.root->Close();
  w.busy_ns = ThreadCpuNs() - start_ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    streams_[index].done = true;
  }
  produced_cv_.notify_all();
}

bool ExchangeOp::LoadHead(size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  Stream& s = streams_[index];
  auto ready = [&] { return closed_ || s.done || !s.queue.empty(); };
  if (s.spares.size() < kMaxSpareItems) {
    s.spares.push_back(std::move(heads_[index]));
  }
  if (!ready()) {
    const auto start = std::chrono::steady_clock::now();
    produced_cv_.wait(lock, ready);
    ctx_.metrics->exchange_wait_ns += ElapsedNs(start);
  }
  if (s.queue.empty()) return false;  // stream done (or exchange closed)
  heads_[index] = std::move(s.queue.front());
  s.queue.pop_front();
  lock.unlock();
  consumed_cv_.notify_all();
  cursor_[index] = 0;
  head_valid_[index] = true;
  ++ctx_.metrics->exchange_batches;
  return true;
}

bool ExchangeOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  if (!started_) return false;
  if (ctx_.InjectFault("exec.exchange.merge")) return false;
  if (!ctx_.GuardOk()) return false;

  // Run-at-a-time k-way merge (worker counts are single-digit). A linear
  // scan of the stream heads finds the smallest normalized key (the
  // winner) and the runner-up. The winner's rows that sort before the
  // runner-up's head form a run no other stream can interleave; a binary
  // search over the winner's sorted head batch finds its end, and the run
  // moves as one column range. Planner-built merge keys end in the
  // provenance column, which belongs to exactly one stream, so
  // cross-stream ties cannot happen; if a hand-built plan produces one
  // anyway, the lower stream index wins — still deterministic. In a
  // sortless chain a worker batch is usually one run; a run that is a
  // whole head batch is handed over by swap, so when it does not fit it
  // starts the next output batch instead of being split.
  const int64_t cap = out->capacity();
  while (out->size() < cap && ctx_.GuardOk()) {
    int best = -1;
    int second = -1;
    std::string_view best_key;
    std::string_view second_key;
    for (size_t i = 0; i < streams_.size(); ++i) {
      if (!head_valid_[i] && !LoadHead(i)) continue;
      const std::string_view key = heads_[i].Key(cursor_[i]);
      if (best >= 0) {
        ++ctx_.metrics->comparisons;
        if (!(key < best_key)) {
          if (second >= 0) {
            ++ctx_.metrics->comparisons;
            if (!(key < second_key)) continue;
          }
          second = static_cast<int>(i);
          second_key = key;
          continue;
        }
        second = best;
        second_key = best_key;
      }
      best = static_cast<int>(i);
      best_key = key;
    }
    if (best < 0) break;  // every stream drained
    const size_t b = static_cast<size_t>(best);
    Item& head = heads_[b];
    const int64_t begin = cursor_[b];
    const int64_t size = head.batch.size();
    int64_t end = size;
    if (second >= 0) {
      // Row r precedes the runner-up's head when its key is smaller, or
      // equal with the winner on the lower stream index.
      const bool ties_to_winner = best < second;
      auto precedes = [&](int64_t r) {
        ++ctx_.metrics->comparisons;
        const int c = head.Key(r).compare(second_key);
        return c < 0 || (c == 0 && ties_to_winner);
      };
      if (size - begin > 1 && !precedes(size - 1)) {
        // Row `begin` precedes, row size-1 does not: bisect between.
        int64_t lo = begin + 1;
        int64_t hi = size - 1;
        while (lo < hi) {
          const int64_t mid = lo + (hi - lo) / 2;
          if (precedes(mid)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        end = lo;
      }
    }
    const int64_t room = cap - out->size();
    if (end - begin > room) {
      // A whole head batch is swapped in next call rather than split.
      if (begin == 0 && end == size && !out->empty()) break;
      end = begin + room;
    }
    out->MoveRangeFrom(&head.batch, emit_cols_, begin, end);
    cursor_[b] = end;
    if (end >= size) head_valid_[b] = false;
  }
  return !out->empty();
}

void ExchangeOp::JoinWorkers() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ExchangeOp::MergeWorkerAccounting() {
  if (accounted_ || workers_.empty()) return;
  accounted_ = true;
  int64_t busy_max = 0;
  int64_t busy_total = 0;
  for (auto& w : workers_) {
    if (ctx_.metrics != nullptr) ctx_.metrics->MergeFrom(*w->metrics);
    busy_max = std::max(busy_max, w->busy_ns);
    busy_total += w->busy_ns;
  }
  if (ctx_.metrics != nullptr) {
    ctx_.metrics->parallel_workers =
        std::max(ctx_.metrics->parallel_workers,
                 static_cast<int64_t>(workers_.size()));
    // Exchanges of one plan execute in distinct phases, so the query's
    // parallel critical path accumulates each region's slowest worker.
    ctx_.metrics->worker_busy_ns_max += busy_max;
    ctx_.metrics->worker_busy_ns_total += busy_total;
  }
  // Fold workers 1..N-1's per-operator stats into worker 0's operators
  // (identical tree shape => identical registry post-order), so EXPLAIN
  // ANALYZE shows aggregate work per chain operator.
  for (size_t i = 1; i < workers_.size(); ++i) {
    const auto& reg = workers_[i]->registry;
    if (reg.size() != workers_[0]->registry.size()) continue;
    for (size_t j = 0; j < reg.size(); ++j) {
      workers_[0]->registry[j].second->AccumulateStats(reg[j].second->stats());
    }
  }
}

void ExchangeOp::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  consumed_cv_.notify_all();
  produced_cv_.notify_all();
  JoinWorkers();
  for (Stream& s : streams_) {
    s.queue.clear();
    s.spares.clear();
  }
  heads_.clear();
  head_valid_.clear();
  cursor_.clear();
  MergeWorkerAccounting();
}

}  // namespace ordopt
