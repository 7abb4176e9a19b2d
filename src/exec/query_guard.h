#ifndef ORDOPT_EXEC_QUERY_GUARD_H_
#define ORDOPT_EXEC_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/runtime_metrics.h"
#include "exec/row_batch.h"

namespace ordopt {

/// Per-query resource limits. Zero means unlimited; every limit is
/// enforced cooperatively inside the executor, so a runaway query degrades
/// to a clean non-OK Status instead of consuming the machine. The scan and
/// output limits stop at the exact row; the buffer limits are charged at
/// operator boundaries and may trip up to one batch late.
struct QueryLimits {
  /// Wall-clock budget for execution, in seconds.
  double deadline_seconds = 0.0;
  /// Rows read from base tables (scans + index probes).
  int64_t max_rows_scanned = 0;
  /// Rows emitted by the plan root.
  int64_t max_rows_produced = 0;
  /// Rows held at once across all blocking operators (sorts, hash builds,
  /// materialized inners, group buffers).
  int64_t max_buffered_rows = 0;
  /// Approximate bytes held at once across all blocking operators.
  int64_t max_buffered_bytes = 0;

  bool Unlimited() const {
    return deadline_seconds <= 0.0 && max_rows_scanned <= 0 &&
           max_rows_produced <= 0 && max_buffered_rows <= 0 &&
           max_buffered_bytes <= 0;
  }
};

/// Approximate heap footprint of one row (inline Values plus string
/// payloads); used for the buffered-bytes guardrail.
int64_t ApproxRowBytes(const Row& row);

/// A memory budget shared by many concurrent queries (the QueryService
/// gives every session's guards one instance): each guard charges its
/// buffered bytes here in addition to its per-query limits, so one
/// spilling sort cannot buffer the whole process into the ground — the
/// query whose charge would cross the budget trips kResourceExhausted
/// while its neighbors keep their reservations and complete. All counters
/// are atomic; TryCharge is wait-free.
class SharedMemoryBudget {
 public:
  /// `limit_bytes <= 0` means unlimited (charges are still tracked).
  explicit SharedMemoryBudget(int64_t limit_bytes = 0)
      : limit_bytes_(limit_bytes) {}

  int64_t limit_bytes() const { return limit_bytes_; }
  int64_t used_bytes() const {
    return used_bytes_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  /// Charges that failed because they would cross the limit.
  int64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }
  /// True when the budget is fully committed (admission gate).
  bool Exhausted() const {
    return limit_bytes_ > 0 && used_bytes() >= limit_bytes_;
  }

  /// Reserves `bytes`; false (and nothing charged) when the reservation
  /// would exceed the limit.
  bool TryCharge(int64_t bytes) {
    if (bytes <= 0) return true;
    int64_t used = used_bytes_.fetch_add(bytes, std::memory_order_relaxed) +
                   bytes;
    if (limit_bytes_ > 0 && used > limit_bytes_) {
      used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Track the high-water mark (racy max: CAS loop keeps it monotonic).
    int64_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (used > peak &&
           !peak_bytes_.compare_exchange_weak(peak, used,
                                              std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Returns a reservation made with TryCharge.
  void Release(int64_t bytes) {
    if (bytes > 0) used_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

 private:
  const int64_t limit_bytes_;
  std::atomic<int64_t> used_bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int64_t> rejections_{0};
};

/// Runtime safety net for one query execution: enforces QueryLimits,
/// carries a cooperative cancellation flag (safe to set from another
/// thread), and serves as the executor's error channel — operators whose
/// NextBatch() cannot return Status poison the guard instead, and ExecutePlan
/// surfaces the poisoned Status to the caller.
///
/// The first violation wins: the guard latches a non-OK Status, every
/// subsequent check returns false, and operators wind down their streams.
///
/// Threading: one guard polices one query, but with morsel-parallel
/// execution that query spans several worker threads that all charge the
/// same guard. Every consumption counter is therefore atomic, the latched
/// Status is published under a mutex behind an atomic `tripped_` flag, and
/// the shared-budget charge bookkeeping uses CAS so concurrent releases
/// never give back more than was charged. Charges cover a batch of rows,
/// never one row, so workers meet here once per batch. The fast paths stay
/// wait-free relaxed atomics — exactness of the counters is preserved
/// (fetch_add), only the peaks are racy-monotonic maxima.
class QueryGuard {
 public:
  /// Unlimited guard: still usable for cancellation and poisoning.
  QueryGuard() = default;
  explicit QueryGuard(QueryLimits limits) : limits_(limits) {}
  ~QueryGuard() {
    // Backstop: a guard that dies with buffered charges outstanding (its
    // operators were torn down without releasing) must not leak budget
    // from the shared pool forever.
    int64_t charged = shared_charged_bytes_.load(std::memory_order_relaxed);
    if (shared_budget_ != nullptr && charged > 0) {
      shared_budget_->Release(charged);
    }
  }

  const QueryLimits& limits() const { return limits_; }

  /// Attaches a cross-query memory budget: every buffered byte is charged
  /// against it in addition to this guard's own limits, and a failed
  /// charge trips the guard with kResourceExhausted. Set before execution
  /// starts; `budget` must outlive the guard.
  void set_shared_budget(SharedMemoryBudget* budget) {
    shared_budget_ = budget;
  }
  SharedMemoryBudget* shared_budget() const { return shared_budget_; }

  /// End-to-end correlation id for the query this guard polices. The
  /// QueryService stamps the ticket's id here at admission; the engine
  /// reads it into QueryResult::query_id and every trace event. Survives
  /// ResetForRetry — the id names the *query*, not the attempt — so a
  /// retried ticket's trace lines join under one id. 0 = unassigned (the
  /// engine falls back to a process-wide sequence).
  void set_query_id(int64_t id) { query_id_ = id; }
  int64_t query_id() const { return query_id_; }

  /// Starts (or restarts) the wall-clock deadline. ExecutePlan arms the
  /// guard when execution begins; a pending cancellation survives Arm.
  void Arm();

  /// Clears a latched trip and all consumption counters so the same guard
  /// can police a fresh attempt of the same query (the QueryService
  /// re-admits transiently failed queries). A pending cancellation
  /// survives — a cancelled query must not be resurrected by retry — as
  /// does the attached shared budget; any stray shared charge left by the
  /// failed attempt's teardown is returned to the pool first.
  void ResetForRetry();

  /// Requests cooperative cancellation; the query trips with kCancelled
  /// at its next check. Thread-safe.
  void RequestCancel() {
    cancel_requested_.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    return cancel_requested_.load(std::memory_order_relaxed);
  }

  /// False once any limit tripped, cancellation was observed, or the
  /// guard was poisoned. Safe from any worker thread.
  bool ok() const { return !tripped_.load(std::memory_order_acquire); }
  /// The latched first-violation Status (OK while ok()). By value: the
  /// latch is cross-thread, so the snapshot is taken under its mutex.
  Status status() const {
    std::lock_guard<std::mutex> lock(status_mu_);
    return status_;
  }

  /// Records an error from a context that cannot return Status (operator
  /// Open/Next). The first poison latches; later ones are dropped.
  /// Thread-safe: workers of one query race to poison, exactly one wins.
  void Poison(Status status);

  /// `n` base-table rows were scanned, as one charge. Returns how many of
  /// them, in order, may be emitted: all `n` under the scan limit, fewer
  /// once a row trips the guard. The tripping row is counted but not
  /// emitted; rows after it are neither, so rows_scanned() ends exactly as
  /// a row-at-a-time charge would leave it.
  int64_t OnRowsScanned(int64_t n);

  /// One row was emitted by the plan root. Returns ok().
  bool OnRowProduced() {
    int64_t produced =
        rows_produced_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (limits_.max_rows_produced > 0 &&
        produced > limits_.max_rows_produced) {
      return TripProducedLimit(produced);
    }
    return PeriodicCheck(1);
  }

  /// `n` rows left an operator as one batch: they count toward the next
  /// deadline and cancellation check, so a join that multiplies rows
  /// without scanning any still honors both. Returns ok().
  bool OnRowsEmitted(int64_t n) { return PeriodicCheck(n); }

  /// `bytes` more row data is now buffered in a blocking operator.
  /// Returns ok().
  bool OnRowsBuffered(int64_t rows, int64_t bytes);
  /// A blocking operator released buffered data (Close or group turnover).
  void OnBufferReleased(int64_t rows, int64_t bytes);

  /// Immediate full check (deadline + cancellation), regardless of the
  /// periodic interval. Returns ok().
  bool ForceCheck();

  /// Copies consumption high-water marks into `metrics` so callers see
  /// consumed-vs-limit even when the query tripped.
  void ReportTo(RuntimeMetrics* metrics) const;

  int64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }
  int64_t rows_produced() const {
    return rows_produced_.load(std::memory_order_relaxed);
  }
  int64_t buffered_rows() const {
    return buffered_rows_.load(std::memory_order_relaxed);
  }
  int64_t buffered_bytes() const {
    return buffered_bytes_.load(std::memory_order_relaxed);
  }
  int64_t buffered_rows_peak() const {
    return buffered_rows_peak_.load(std::memory_order_relaxed);
  }
  int64_t buffered_bytes_peak() const {
    return buffered_bytes_peak_.load(std::memory_order_relaxed);
  }

 private:
  /// Deadline and cancellation are checked every this many guard events;
  /// the common-case cost of a check is one decrement and compare.
  static constexpr int64_t kCheckIntervalRows = 1024;

  /// Counts `events` guard events (rows) toward the next full check.
  bool PeriodicCheck(int64_t events) {
    if (tripped_.load(std::memory_order_acquire)) return false;
    if (events_until_check_.fetch_sub(events, std::memory_order_relaxed) >
        events) {
      return true;
    }
    return ForceCheck();
  }
  void TripScanLimit(int64_t scanned);
  bool TripProducedLimit(int64_t produced);

  QueryLimits limits_;
  mutable std::mutex status_mu_;
  Status status_;  // guarded by status_mu_; published via tripped_
  std::atomic<bool> tripped_{false};
  std::atomic<bool> cancel_requested_{false};

  bool armed_ = false;
  std::chrono::steady_clock::time_point start_time_;

  std::atomic<int64_t> events_until_check_{1};  // full check on first event
  std::atomic<int64_t> rows_scanned_{0};
  std::atomic<int64_t> rows_produced_{0};
  std::atomic<int64_t> buffered_rows_{0};
  std::atomic<int64_t> buffered_bytes_{0};
  std::atomic<int64_t> buffered_rows_peak_{0};
  std::atomic<int64_t> buffered_bytes_peak_{0};

  /// Optional service-wide budget (see SharedMemoryBudget above). The
  /// charge bookkeeping is CAS-bounded so concurrent worker releases give
  /// back exactly what this guard managed to charge, never more.
  SharedMemoryBudget* shared_budget_ = nullptr;
  std::atomic<int64_t> shared_charged_bytes_{0};

  int64_t query_id_ = 0;
};

/// Tracks the rows/bytes one blocking operator currently holds, charging
/// them against the guard's shared buffered-total; Release (or the
/// destructor) gives the charge back when the operator drops its buffer.
///
/// Add only accumulates locally: nothing shared is written per row. The
/// account joins its thread's list of pending accounts, and FlushPending
/// charges every pending account on the thread at once. The Operator
/// wrappers flush at every Open/NextBatch entry and exit, and Release,
/// Update and AddBytes flush before they touch the guard, so the guard's
/// total is exact whenever it can fall and both buffered peaks equal a
/// per-row charge's. A buffer limit therefore trips at the next flush, up
/// to one batch after the row that crossed it.
class BufferAccount {
 public:
  BufferAccount() = default;
  explicit BufferAccount(QueryGuard* guard) : guard_(guard) {}
  /// With `stats`, also records this operator's buffered-rows peak for
  /// EXPLAIN ANALYZE (independent of whether a guard is present).
  BufferAccount(QueryGuard* guard, OperatorStats* stats)
      : guard_(guard), stats_(stats) {}
  BufferAccount(const BufferAccount&) = delete;
  BufferAccount& operator=(const BufferAccount&) = delete;
  ~BufferAccount() { Release(); }

  /// Charges one buffered row, pending until the thread's next flush.
  void Add(const Row& row) {
    rows_ += 1;
    if (stats_ != nullptr && rows_ > stats_->buffered_rows_peak) {
      stats_->buffered_rows_peak = rows_;
    }
    if (guard_ == nullptr) return;
    const int64_t bytes = ApproxRowBytes(row);
    bytes_ += bytes;
    pending_bytes_ += bytes;
    if (pending_rows_++ == 0) Enlist();
  }

  /// Charges `bytes` of operator state that is not a row (an aggregate's
  /// exact sum). Returns false once a buffer limit trips.
  bool AddBytes(int64_t bytes);

  /// Re-prices one already-charged row that is being replaced in place
  /// (e.g. a Top-N heap eviction): swaps `old_row`'s bytes for
  /// `new_row`'s without changing the row count; the charge is immediate.
  void Update(const Row& old_row, const Row& new_row);

  /// Releases everything charged so far.
  void Release();

  /// Charges every account with pending rows on the calling thread to its
  /// guard. Returns false when a charge tripped a limit.
  static bool FlushPending();

 private:
  /// Joins the calling thread's pending list.
  void Enlist();

  QueryGuard* guard_ = nullptr;
  OperatorStats* stats_ = nullptr;
  int64_t rows_ = 0;  ///< held, pending included
  int64_t bytes_ = 0;
  /// Added since the last flush; nonzero exactly while the account is on
  /// its thread's pending list.
  int64_t pending_rows_ = 0;
  int64_t pending_bytes_ = 0;
};

class SpillManager;
class Operator;
class MorselScheduler;
struct PlanNode;

/// Everything the operator tree needs from its environment: runtime
/// counters plus the (optional) guard and spill manager. Passed by value
/// — three pointers.
struct ExecContext {
  ExecContext() = default;
  ExecContext(RuntimeMetrics* m, QueryGuard* g) : metrics(m), guard(g) {}
  ExecContext(RuntimeMetrics* m, QueryGuard* g, SpillManager* s)
      : metrics(m), guard(g), spill(s) {}
  /// Compatibility shape for contexts that only count (benches, direct
  /// operator tests): no guard, so internal invariants still abort.
  /// Intentionally implicit so a bare RuntimeMetrics* keeps working at
  /// every pre-guard operator construction site.
  ExecContext(RuntimeMetrics* m) : metrics(m) {}  // NOLINT

  RuntimeMetrics* metrics = nullptr;
  QueryGuard* guard = nullptr;
  /// Non-null when the engine provisioned disk spilling; null contexts
  /// sort purely in memory.
  SpillManager* spill = nullptr;
  /// True under EXPLAIN ANALYZE / full tracing: every operator times its
  /// Open()/NextBatch() calls and accumulates OperatorStats. Off by default so
  /// the execution hot path pays a single predictable branch.
  bool collect_op_stats = false;
  /// When non-null, BuildOperatorTree appends (plan node, operator) pairs
  /// in post-order so the engine can pair each operator's stats with the
  /// plan node that produced it. Owned by ExecutePlan.
  std::vector<std::pair<const PlanNode*, Operator*>>* op_registry = nullptr;
  /// Runtime order verification (OptimizerConfig::verify_orders): every
  /// operator whose plan node claims a non-empty order or key property is
  /// wrapped in an OrderCheckOp that poisons the guard with kInternal the
  /// moment the stream disobeys the claim. Checker operators are invisible
  /// to op_registry, metrics, and the guard's buffer accounting.
  bool verify_orders = false;
  /// Rows per execution batch (Operator::BatchCapacity). 1 degenerates to
  /// single-row batches through the same columnar code path. <= 0 is
  /// clamped to 1.
  int64_t batch_rows = kDefaultBatchRows;
  /// Morsel dispatcher of the enclosing ExchangeOp; non-null only inside a
  /// worker's operator tree. The chain's driving scan pulls rid/ordinal
  /// ranges from it instead of scanning its full range.
  MorselScheduler* morsels = nullptr;

  bool GuardOk() const { return guard == nullptr || guard->ok(); }

  /// Null-safe OnRowsEmitted. A trip it causes surfaces through GuardOk.
  void OnRowsEmitted(int64_t n) const {
    if (guard != nullptr) guard->OnRowsEmitted(n);
  }

  /// Charges `n` scanned base-table rows to the metrics and (null-safe) the
  /// guard in one step; returns how many of them may be emitted. Fewer
  /// than `n` means the guard tripped and the scan's stream is over; the
  /// tripping row is counted in rows_scanned but not emitted.
  int64_t OnRowsScanned(int64_t n) const {
    const int64_t admitted = guard == nullptr ? n : guard->OnRowsScanned(n);
    metrics->rows_scanned += admitted < n ? admitted + 1 : n;
    return admitted;
  }

  /// Reports an internal error. With a guard the query degrades to an
  /// error Status; without one (direct operator construction) this is a
  /// programming error and keeps the historical abort behavior.
  void Poison(Status status) const;

  /// Fault-injection probe for non-Status contexts: true when `site`
  /// fired (the guard, if any, is poisoned with the injected Status and
  /// the caller should end its stream).
  bool InjectFault(const char* site) const {
    if (!FaultInjector::Global().enabled()) return false;
    Status fault = FaultInjector::Global().Check(site);
    if (fault.ok()) return false;
    Poison(std::move(fault));
    return true;
  }
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_QUERY_GUARD_H_
