#ifndef ORDOPT_SERVICE_QUERY_SERVICE_H_
#define ORDOPT_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "exec/engine.h"
#include "exec/query_guard.h"
#include "service/plan_cache.h"
#include "service/resilience.h"
#include "storage/database.h"

namespace ordopt {

class QueryService;

/// Knobs for one QueryService instance. Defaults give a small pool with
/// bounded admission and caching on; zero generally means "unlimited" or
/// "disabled" per field.
struct ServiceConfig {
  /// Worker threads, each owning a private QueryEngine over the shared
  /// Database. Clamped to >= 1.
  int workers = 4;
  /// Admission-queue bound: Submit sheds (kResourceExhausted) instead of
  /// blocking once this many queries are queued but not yet running.
  /// Clamped to >= 1.
  size_t queue_depth = 64;
  /// Plan-cache capacity in entries; 0 disables plan caching.
  size_t plan_cache_capacity = 128;
  /// Global memory budget shared by all in-flight queries' buffered rows;
  /// 0 = unlimited. A query whose buffering would cross the budget trips
  /// kResourceExhausted, and Submit sheds while the budget is fully
  /// committed.
  int64_t global_budget_bytes = 0;
  /// Max queries a single session may have queued+running at once;
  /// 0 = unlimited. The per-session half of admission control.
  int max_inflight_per_session = 0;
  /// Per-query limits applied to sessions that don't override them at
  /// OpenSession (deadline doubles as the per-query timeout).
  QueryLimits default_limits;
  /// Optimizer configuration for every worker engine.
  OptimizerConfig engine_config;
  /// Failure-handling policy: service-level retry, per-fault-domain
  /// circuit breakers, degraded-mode admission (see service/resilience.h).
  ResilienceConfig resilience;
  /// Distribution/state instrumentation: latency + queue-wait histograms,
  /// in-flight / queue-depth / budget / breaker gauges, and per-query
  /// engine series, all on the service's registry. The lifetime *counters*
  /// (ServiceStats, PlanCacheStats) are registry-backed regardless — they
  /// are how stats() is produced — so disabling this only strips the extra
  /// per-query recording, which is what `bench_service --metrics` measures
  /// the overhead of.
  bool enable_metrics = true;
};

/// Monotonic counters describing a service's lifetime admission behavior.
struct ServiceStats {
  int64_t submitted = 0;         ///< Submit calls, admitted or not
  int64_t admitted = 0;          ///< queries that entered the queue
  int64_t shed_queue_full = 0;   ///< rejected: admission queue at bound
  int64_t shed_session_cap = 0;  ///< rejected: session in-flight cap
  int64_t shed_budget = 0;       ///< rejected: global memory budget spent
  int64_t completed = 0;         ///< finished with an OK result
  int64_t failed = 0;            ///< finished with any non-OK status
  int64_t retried = 0;           ///< re-admissions after a transient failure
  int64_t breaker_rejected = 0;  ///< fast-failed: a circuit breaker was open
  int64_t degraded = 0;          ///< attempts executed in degraded mode
  int64_t quarantined = 0;       ///< cached plans quarantined after failing
};

/// Handle to one submitted query. Created by QueryService::Submit, shared
/// between the submitting client and the worker that executes it; safe to
/// Wait/Cancel/poll from any thread. Tickets outlive the service's interest
/// in them — a client may keep one after Shutdown.
class QueryTicket {
 public:
  /// Blocks until the query finishes (successfully, with an error, or
  /// shed at execution time) and returns the result. Idempotent.
  const Result<QueryResult>& Wait();

  /// True once the result is available; Wait will not block.
  bool done() const;

  /// Requests cooperative cancellation: a queued query completes with
  /// kCancelled without executing; a running query trips at its next
  /// guard check. Thread-safe, idempotent.
  void Cancel() { guard_.RequestCancel(); }

  int64_t id() const { return id_; }
  int64_t session_id() const { return session_id_; }
  const std::string& sql() const { return sql_; }

  /// Time spent in the admission queue before a worker first picked the
  /// query up, and total execution time across attempts. Valid after
  /// done().
  double queued_seconds() const { return queued_seconds_; }
  double exec_seconds() const { return exec_seconds_; }

  /// Times the service re-admitted this query after a transient failure
  /// (0 = first attempt answered). Valid after done().
  int retry_attempts() const { return attempts_; }

 private:
  friend class QueryService;
  QueryTicket(int64_t id, int64_t session_id, std::string sql,
              QueryLimits limits)
      : id_(id),
        session_id_(session_id),
        sql_(std::move(sql)),
        guard_(limits),
        submit_time_(std::chrono::steady_clock::now()) {}

  /// Worker side: publish the result and wake waiters. Called once.
  void Complete(Result<QueryResult> result);

  const int64_t id_;
  const int64_t session_id_;
  const std::string sql_;
  QueryGuard guard_;
  const std::chrono::steady_clock::time_point submit_time_;
  double queued_seconds_ = 0.0;
  double exec_seconds_ = 0.0;
  /// Re-admissions so far; only the executing worker mutates it, readers
  /// wait for done().
  int attempts_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Result<QueryResult> result_ = Status::Internal("query still pending");
};

using TicketRef = std::shared_ptr<QueryTicket>;

/// Multi-client front end over one immutable Database: a fixed pool of
/// worker threads (each with a private QueryEngine) drains a bounded
/// admission queue of per-session queries. The service's contract under
/// overload is *shed, never block, never crash*: Submit returns
/// kResourceExhausted immediately when the queue is at bound, the
/// session's in-flight cap is reached, or the global memory budget is
/// fully committed — admitted queries always run to an answer or a clean
/// error. Repeated query templates skip the optimizer via a shared
/// fingerprint-keyed PlanCache (parameterized text + Database stats
/// epoch): a hit binds the request's literals into the cached generic plan
/// (QueryEngine::RunPrepared).
///
/// Resilience (see service/resilience.h): queries that fail transiently
/// are re-admitted with deterministic backoff, up to the configured retry
/// budget; per-fault-domain circuit breakers (storage / spill / planner)
/// fast-fail admitted work with kUnavailable while a domain is melting
/// down; when shared-budget occupancy crosses the high-water mark, new
/// admissions execute *degraded* (reduced sort budget, plan-cache writes
/// off) instead of queueing up to be shed; and a cached plan whose
/// execution fails non-transiently is evicted and quarantined for the
/// stats epoch. All of it stays off the happy path — with breakers closed
/// and the budget low, the per-query overhead is a few relaxed atomic
/// loads.
///
/// All public methods are thread-safe. The Database must be finalized
/// before construction and must not be mutated while the service lives
/// (the load-then-serve contract in storage/database.h).
class QueryService {
 public:
  QueryService(Database* db, ServiceConfig config = ServiceConfig());
  ~QueryService();  ///< implies Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a client session and returns its id. Sessions are cheap:
  /// an id, per-query limits, and an in-flight count.
  int64_t OpenSession();
  /// Like OpenSession but overriding the config's default_limits for
  /// queries this session submits.
  int64_t OpenSession(QueryLimits limits);
  /// Ends a session: further Submits are rejected (kNotFound) and its
  /// still-queued/running queries are cancelled. Idempotent.
  void CloseSession(int64_t session_id);

  /// Admits `sql` for asynchronous execution on behalf of `session_id`.
  /// Never blocks: returns the ticket on admission, kResourceExhausted
  /// when shedding (queue full / session cap / budget spent), kNotFound
  /// for an unknown or closed session, or the service-stopped error after
  /// Shutdown.
  Result<TicketRef> Submit(int64_t session_id, const std::string& sql);

  /// Convenience: Submit + Wait. The admission errors above come back as
  /// the Result's status.
  Result<QueryResult> Execute(int64_t session_id, const std::string& sql);

  /// Stops admission, drains already-admitted queries, joins workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Lifetime admission counters, read from ONE registry snapshot — the
  /// relations between fields (submitted = admitted + sheds, admitted =
  /// completed + failed once drained) hold within a single return value
  /// instead of tearing across independently-read atomics.
  ServiceStats stats() const;
  PlanCacheStats plan_cache_stats() const { return plan_cache_.stats(); }
  double plan_cache_hit_rate() const { return plan_cache_.HitRate(); }
  /// This service's metrics registry: every `service.*`, `plan_cache.*`,
  /// `breaker.*`, `budget.*`, and (with config.enable_metrics) `engine.*`
  /// series. Snap/RenderText/RenderJson are safe while queries run.
  const MetricsRegistry& metrics() const { return metrics_; }
  const SharedMemoryBudget& budget() const { return budget_; }
  /// Mutable access to the shared pool for co-owners that charge it from
  /// outside the worker path (tests use this to simulate external memory
  /// pressure and force degraded-mode admissions deterministically).
  SharedMemoryBudget* mutable_budget() { return &budget_; }
  /// Breaker states / trip counts and the degraded-mode signal.
  const ResilienceManager& resilience() const { return resilience_; }
  /// Queries queued but not yet claimed by a worker.
  size_t queue_depth() const;
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Session {
    QueryLimits limits;
    bool open = true;
    int inflight = 0;  // queued + running, guarded by sessions_mu_
    /// Live tickets for cancel-on-close; pruned as queries finish.
    std::vector<std::weak_ptr<QueryTicket>> tickets;
  };

  /// Per-worker mutable state: the private engine plus which of the two
  /// configs (normal / degraded) it currently carries.
  struct WorkerState {
    WorkerState(Database* db, const OptimizerConfig& config)
        : engine(db, config) {}
    QueryEngine engine;
    bool degraded = false;
  };

  void WorkerLoop();
  /// Runs one admitted query, including the breaker gate, degraded-mode
  /// engine swap, plan-cache protocol, quarantine, and retry
  /// re-admission; completes the ticket unless it was re-admitted.
  void RunTicket(WorkerState* state, const TicketRef& ticket);
  /// One execution attempt: the plan-cache protocol around the engine
  /// call. Sets `*from_cache` when a cached plan was executed and
  /// `*epoch` to the stats epoch the attempt keyed the cache under.
  Result<QueryResult> ExecuteAttempt(QueryEngine* engine,
                                     const TicketRef& ticket, bool degraded,
                                     bool* from_cache, uint64_t* epoch);
  /// Post-completion bookkeeping: session in-flight count and counters.
  void FinishTicket(const QueryTicket& ticket, bool ok);
  /// Returns a session's reserved in-flight slot (and, with `ticket`,
  /// drops its live-ticket entry). Null `ticket` = admission failed after
  /// the slot was reserved.
  void ReleaseSessionSlot(int64_t session_id, const QueryTicket* ticket);

  Database* const db_;
  const ServiceConfig config_;
  /// Declared before every member that holds instrument pointers into it
  /// (plan_cache_, resilience_ gauges, worker engines), so those members
  /// are destroyed first and never record into a dead registry. Private
  /// per service: two concurrent services never mix their series.
  MetricsRegistry metrics_;
  PlanCache plan_cache_;
  SharedMemoryBudget budget_;
  ResilienceManager resilience_;
  /// engine_config with degraded_mode set and the sort budget scaled by
  /// resilience.degraded_sort_budget_factor; swapped onto worker engines
  /// while the budget is over the high-water mark.
  OptimizerConfig degraded_engine_config_;
  /// engine_config as worker engines actually run it (metrics registry
  /// attached when config.enable_metrics).
  OptimizerConfig worker_engine_config_;

  /// Registry-backed ServiceStats counters (always on — they replace the
  /// old mutex-guarded struct; an increment is one relaxed atomic add).
  Counter* c_submitted_ = nullptr;
  Counter* c_admitted_ = nullptr;
  Counter* c_shed_queue_full_ = nullptr;
  Counter* c_shed_session_cap_ = nullptr;
  Counter* c_shed_budget_ = nullptr;
  Counter* c_completed_ = nullptr;
  Counter* c_failed_ = nullptr;
  Counter* c_retried_ = nullptr;
  Counter* c_breaker_rejected_ = nullptr;
  Counter* c_degraded_ = nullptr;
  Counter* c_quarantined_ = nullptr;
  /// Distribution instruments, null unless config.enable_metrics.
  Histogram* h_queue_wait_us_ = nullptr;
  Histogram* h_latency_ok_us_ = nullptr;
  Histogram* h_latency_failed_us_ = nullptr;
  Gauge* g_inflight_ = nullptr;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<TicketRef> queue_;
  bool stopping_ = false;

  mutable std::mutex sessions_mu_;
  std::unordered_map<int64_t, Session> sessions_;
  int64_t next_session_id_ = 1;
  std::atomic<int64_t> next_ticket_id_{1};

  std::vector<std::thread> workers_;
};

}  // namespace ordopt

#endif  // ORDOPT_SERVICE_QUERY_SERVICE_H_
