#ifndef ORDOPT_EXEC_RUNTIME_METRICS_H_
#define ORDOPT_EXEC_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <unordered_set>

namespace ordopt {

/// The RuntimeMetrics counters, declared once as
/// X(field, merge rule, ToString label, unit). The list generates the
/// fields, MergeFrom, ToString (label=value) and ToJson ("field":value).
/// Merge rules: kSum for additive counters, kMax for peaks and widths,
/// kNone for the plan-time reduce-cache fields (workers never plan). Units:
/// kCount prints as an integer, kNanos prints as seconds in ToString.
///
/// Groups, in order: root output and scan/sort work; guardrail high-water
/// marks (filled by the QueryGuard even when the query tripped: peak rows
/// and approximate bytes held at once in blocking operators); external-sort
/// spill activity (runs, rows and bytes written when a sort exceeds its row
/// budget, and retried transient I/O failures); the reduce-cache statistics
/// of the optimization that produced the plan (copied from the planner by
/// the engine, 0/0 for prebuilt plans); morsel-parallel execution (worker
/// count of the widest exchange, batches forwarded through exchanges, the
/// consuming thread's time blocked waiting on worker queues, and
/// per-worker thread-CPU busy time: max is the parallel region's critical
/// path, total the work distributed; all zero for serial plans).
#define ORDOPT_RUNTIME_COUNTERS(X)                                           \
  X(rows_produced, kSum, "rows", kCount)       /* rows emitted by the root */ \
  X(rows_scanned, kSum, "scanned", kCount)     /* rows read from tables */    \
  X(comparisons, kSum, "cmp", kCount)          /* sort + merge comparisons */ \
  X(seq_pages, kSum, "seq_pages", kCount)      /* sequential page reads */    \
  X(random_pages, kSum, "rand_pages", kCount)  /* random page reads */        \
  X(index_probes, kSum, "probes", kCount)      /* nested-loop index probes */ \
  X(sorts_performed, kSum, "sorts", kCount)    /* Sort operators that ran */  \
  X(rows_sorted, kSum, "rows_sorted", kCount)  /* rows through sorts */     \
  X(rows_buffered_peak, kMax, "buf_rows_peak", kCount)                       \
  X(bytes_buffered_peak, kMax, "buf_bytes_peak", kCount)                     \
  X(spill_runs, kSum, "spill_runs", kCount)                                  \
  X(spill_rows, kSum, "spill_rows", kCount)                                  \
  X(spill_bytes, kSum, "spill_bytes", kCount)                                \
  X(spill_retries, kSum, "spill_retries", kCount)                            \
  X(reduce_cache_hits, kNone, "reduce_hits", kCount)                         \
  X(reduce_cache_misses, kNone, "reduce_misses", kCount)                     \
  X(parallel_workers, kMax, "workers", kCount)                               \
  X(exchange_batches, kSum, "exch_batches", kCount)                          \
  X(exchange_wait_ns, kSum, "exch_wait", kNanos)                             \
  X(worker_busy_ns_max, kMax, "worker_busy_max", kNanos)                     \
  X(worker_busy_ns_total, kSum, "worker_busy_total", kNanos)

/// The RuntimeMetrics counters that OperatorStats attributes to each
/// operator as inclusive deltas, declared once as X(field). The list
/// generates the OperatorStats fields and MergeFrom, Operator's
/// snapshot/delta bookkeeping, and the exec trace event's fields.
#define ORDOPT_OPERATOR_DELTA_COUNTERS(X)                          \
  X(rows_scanned) X(comparisons) X(seq_pages) X(random_pages)      \
  X(index_probes) X(spill_runs) X(spill_retries) X(exchange_wait_ns)

/// Declares one counter of either list as a zero-initialized field.
#define ORDOPT_DECLARE_COUNTER(field, ...) int64_t field = 0;

/// Runtime counters collected during execution. Page counters come from a
/// per-scan locality tracker: a row fetch that stays on the current page is
/// free, a move to the next page counts as a sequential page read, and any
/// other move counts as a random page read — so clustered, ordered probe
/// sequences naturally cost sequential I/O (the §8.1 effect) without the
/// executor special-casing them.
struct RuntimeMetrics {
  ORDOPT_RUNTIME_COUNTERS(ORDOPT_DECLARE_COUNTER)

  /// Accumulates a worker's counters into this (query-level) instance by
  /// each counter's merge rule. Workers execute with private RuntimeMetrics
  /// so the hot paths never share cache lines; the exchange merges them at
  /// Close.
  void MergeFrom(const RuntimeMetrics& worker);

  /// Simulated I/O time with 1996-style disk parameters: a random page
  /// pays a seek (~8 ms); sequential pages stream with big-block prefetch
  /// and I/O parallelism (~1 ms/page). The 8:1 ratio is kept close to the
  /// cost model's random:sequential ratio so plan rank order and simulated
  /// time agree.
  double SimulatedIoSeconds() const {
    return static_cast<double>(random_pages) * 0.008 +
           static_cast<double>(seq_pages) * 0.001;
  }

  /// Simulated CPU time on a 1996-class (66 MHz) processor. Row handling
  /// through an interpreted executor cost on the order of thousands of
  /// instructions: ~30 µs per row moved, ~5 µs per key comparison
  /// (calibrated against the paper's §8.1 numbers — 393 s for the
  /// scan-dominated disabled plan over a 1 GB database is ~60 µs/row).
  /// The paper's configuration drove the CPU to 100% utilization, so this
  /// work contributes elapsed time directly — a modern CPU would hide it.
  double SimulatedCpuSeconds() const {
    return static_cast<double>(comparisons) * 5e-6 +
           static_cast<double>(rows_scanned + rows_produced + rows_sorted) *
               30e-6;
  }

  /// Total simulated elapsed time (I/O + CPU) on the paper-era hardware.
  double SimulatedElapsedSeconds() const {
    return SimulatedIoSeconds() + SimulatedCpuSeconds();
  }

  std::string ToString() const;

  /// One JSON object with every counter plus the simulated-time rollups;
  /// embedded verbatim in the ORDOPT_TRACE event stream.
  std::string ToJson() const;
};

/// Per-operator runtime statistics, collected when a query runs under
/// EXPLAIN ANALYZE (ExecContext::collect_op_stats). The metrics-delta
/// counters are *inclusive* of the operator's children: the Open()/NextBatch()
/// wrappers accumulate the query-level RuntimeMetrics delta across each
/// whole call, which contains the nested child pulls. Stats therefore roll
/// up parent -> child, and an operator's self cost is derivable as its
/// value minus the sum over its children.
struct OperatorStats {
  int64_t open_ns = 0;     ///< wall time inside Open() (blocking work)
  int64_t next_ns = 0;     ///< wall time across all NextBatch() calls
  int64_t next_calls = 0;  ///< NextBatch() invocations (incl. the final false)
  int64_t rows_out = 0;    ///< rows this operator produced
  /// RuntimeMetrics deltas attributed to this subtree (inclusive).
  ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_DECLARE_COUNTER)
  /// Peak rows this operator held buffered at once (its BufferAccount).
  int64_t buffered_rows_peak = 0;

  int64_t total_ns() const { return open_ns + next_ns; }

  /// Accumulates another worker's stats for the same plan node: counters
  /// and times sum (total work across workers), peaks take the maximum.
  /// EXPLAIN ANALYZE of a parallel plan therefore shows aggregate work per
  /// operator, with wall time exceeding elapsed time when workers overlap.
  void MergeFrom(const OperatorStats& other) {
    open_ns += other.open_ns;
    next_ns += other.next_ns;
    next_calls += other.next_calls;
    rows_out += other.rows_out;
#define ORDOPT_SUM_COUNTER(field) field += other.field;
    ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_SUM_COUNTER)
#undef ORDOPT_SUM_COUNTER
    if (other.buffered_rows_peak > buffered_rows_peak) {
      buffered_rows_peak = other.buffered_rows_peak;
    }
  }
};

/// Tracks page-access locality for one scan or probe stream. A fetch on
/// the current page is free; a short forward move counts as a sequential
/// (prefetched) read — the disk arm sweeps forward, and the paper's
/// big-block I/O + striping configuration (§8.1) turns an ordered,
/// clustered probe sequence into sequential I/O even when pages are
/// skipped; anything else (backward moves, long jumps) is a random read.
class PageTracker {
 public:
  /// Forward jumps up to this many pages ride the prefetch window.
  static constexpr int64_t kPrefetchWindowPages = 32;

  PageTracker(RuntimeMetrics* metrics, int64_t rows_per_page)
      : metrics_(metrics), rows_per_page_(rows_per_page) {}

  /// Records the I/O for fetching row `rid`. Pages this operator already
  /// touched are buffer hits (free): the operator-local working set models
  /// the 512 MB buffer pool of the paper's configuration, which easily
  /// holds the hot pages of a repeatedly-probed table.
  void Access(int64_t rid) { AccessPage(rid / rows_per_page_); }

  /// Records fetching rows [begin, end) in order: the same charges as
  /// Access on each rid, computed once per page.
  void AccessRange(int64_t begin, int64_t end) {
    if (begin >= end) return;
    const int64_t last = (end - 1) / rows_per_page_;
    for (int64_t page = begin / rows_per_page_; page <= last; ++page) {
      AccessPage(page);
    }
  }

 private:
  void AccessPage(int64_t page) {
    if (page == last_page_) return;
    if (resident_.insert(page).second == false) {
      last_page_ = page;  // buffer hit
      return;
    }
    if (page > last_page_ && page - last_page_ <= kPrefetchWindowPages &&
        last_page_ >= 0) {
      ++metrics_->seq_pages;
    } else {
      ++metrics_->random_pages;
    }
    last_page_ = page;
  }

  RuntimeMetrics* metrics_;
  int64_t rows_per_page_;
  int64_t last_page_ = -2;  // so the first access is random
  std::unordered_set<int64_t> resident_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_RUNTIME_METRICS_H_
