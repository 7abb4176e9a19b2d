#ifndef ORDOPT_EXEC_ENGINE_H_
#define ORDOPT_EXEC_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "qgm/binder.h"
#include "storage/database.h"

namespace ordopt {

/// Everything a query run produces: rows, names, the chosen plan, runtime
/// metrics, and timing. `elapsed_seconds` is measured wall time on this
/// machine; `SimulatedElapsedSeconds()` is the simulated time on the
/// paper's 1996 hardware (disk I/O + 66 MHz CPU), which is what the
/// Table-1 reproduction reports — modern in-memory wall time would hide
/// the plan difference the paper measures.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  PlanRef plan;
  std::string plan_text;
  std::string qgm_text;
  RuntimeMetrics metrics;
  double elapsed_seconds = 0.0;
  /// Wall time spent in parse + bind + optimize (0 for cached executions,
  /// which skip all three).
  double plan_seconds = 0.0;
  /// End-to-end correlation id: taken from the caller's guard when the
  /// QueryService assigned one (stable across retries of the same ticket),
  /// else drawn from a process-wide sequence. Stamped on every trace event
  /// and shown in the EXPLAIN ANALYZE service summary line, so one query's
  /// trace export, retries, and analyzed plan join on this value.
  int64_t query_id = 0;
  int64_t plans_generated = 0;
  /// Candidate plans surviving domination pruning across all DP tables.
  int64_t plans_retained = 0;
  /// Reduce-cache statistics for this optimization (0/0 when the property
  /// context never became cacheable; see orderopt/reduce_cache.h).
  int64_t reduce_cache_hits = 0;
  int64_t reduce_cache_misses = 0;

  /// EXPLAIN ANALYZE rendering (RunAnalyzed only): the plan annotated with
  /// per-operator est-vs-actual rows and timings, followed by the
  /// optimizer's traced decisions.
  std::string analyzed_plan_text;
  /// Per-operator execution stats in operator-construction (post-order)
  /// sequence; filled when tracing ran at TraceLevel::kFull.
  std::vector<OperatorProfile> op_profile;
  /// The query's trace collector, non-null when tracing was on (config
  /// trace_level, a trace path, or RunAnalyzed). Holds planner decision
  /// events plus, at kFull, exec-phase operator/metrics events.
  std::shared_ptr<TraceCollector> trace;

  /// True when the plan was taken from a plan cache and execution skipped
  /// parse/bind/optimize entirely (RunPrepared); plans_generated and the
  /// reduce-cache counters are 0 for such runs.
  bool planned_from_cache = false;

  /// Service resilience annotations (see service/resilience.h). The engine
  /// sets `degraded` from OptimizerConfig::degraded_mode; `retry_attempts`
  /// is stamped by the QueryService with how many times this query was
  /// re-admitted after a transient failure before it produced this result.
  bool degraded = false;
  int retry_attempts = 0;

  /// Column renderer for this query's plan (captures the bound column
  /// names by value, so it stays valid after the Query object dies).
  /// Carried into PreparedPlan so cached executions can render EXPLAIN
  /// ANALYZE output with real column names.
  ColumnNamer namer;

  double SimulatedElapsedSeconds() const {
    return metrics.SimulatedElapsedSeconds();
  }
};

/// Everything needed to execute a query whose optimization already
/// happened — the currency of the service's plan cache. The plan tree is
/// immutable and shared; holders may execute it from many threads at once
/// (each execution builds its own operator tree). Table pointers inside
/// the plan stay valid as long as the Database outlives the holder, and
/// the plan is only correct for the stats epoch it was built under —
/// cache keys carry that epoch (see service/plan_cache.h).
struct PreparedPlan {
  PlanRef plan;
  std::vector<std::string> column_names;
  std::string plan_text;
  std::string qgm_text;
  /// Self-contained column renderer (see QueryResult::namer); may be null
  /// for hand-built plans, in which case labels fall back to c<t>.<i>.
  ColumnNamer namer;

  /// Captures the planned artifacts of a QueryResult (from Explain or a
  /// full Run) for later re-execution.
  static PreparedPlan FromResult(const QueryResult& result) {
    PreparedPlan p;
    p.plan = result.plan;
    p.column_names = result.column_names;
    p.plan_text = result.plan_text;
    p.qgm_text = result.qgm_text;
    p.namer = result.namer;
    return p;
  }
};

/// End-to-end facade: parse -> bind -> rewrite -> optimize -> execute.
/// Toggle `config.enable_order_optimization` to run the paper's disabled
/// baseline against the same database.
///
/// Threading: Run/Explain/RunAnalyzed/RunPrepared are safe to call from
/// multiple threads on one engine — every query builds its own planner,
/// guard, spill manager, and trace collector, the database is read-only,
/// and last_metrics() snapshots under a lock. set_config is NOT
/// synchronized with in-flight queries: configure before sharing the
/// engine (the QueryService sidesteps this entirely by owning one engine
/// per worker thread).
class QueryEngine {
 public:
  explicit QueryEngine(Database* db, OptimizerConfig config = OptimizerConfig())
      : db_(db), config_(config) {}

  const OptimizerConfig& config() const { return config_; }
  void set_config(OptimizerConfig config) { config_ = config; }

  /// Plans `sql` without executing (fills everything but rows/metrics).
  Result<QueryResult> Explain(const std::string& sql);

  /// Plans and executes `sql` under `config().limits` (unlimited when the
  /// config sets none).
  Result<QueryResult> Run(const std::string& sql);

  /// Plans and executes `sql` under a caller-owned guard, e.g. to cancel
  /// from another thread or to reuse one set of limits across queries.
  /// `guard` must outlive the call; the caller is responsible for arming
  /// semantics (Run re-arms it so the deadline clock starts at execution).
  Result<QueryResult> Run(const std::string& sql, QueryGuard* guard);

  /// EXPLAIN ANALYZE: plans and executes `sql` with per-operator stats
  /// collection forced on (TraceLevel::kFull for this query), and fills
  /// `analyzed_plan_text` / `op_profile` / `trace` in the result.
  Result<QueryResult> RunAnalyzed(const std::string& sql);

  /// Executes an already-optimized plan, skipping parse/bind/optimize —
  /// the plan-cache hit path. Runs under `guard` when non-null, else
  /// under the engine's configured limits; spilling, guardrails, and
  /// runtime order verification behave exactly as in Run. With tracing
  /// configured (trace_level / trace_path / ORDOPT_TRACE) the run records
  /// a `plan.cached` event plus, at kFull, per-operator execution stats —
  /// the cache-hit hot path with tracing off still pays nothing.
  /// result.planned_from_cache is set.
  Result<QueryResult> RunPrepared(const PreparedPlan& prepared,
                                  QueryGuard* guard = nullptr);

  /// EXPLAIN ANALYZE for a cached plan: like RunPrepared but forces
  /// per-operator stats collection and fills analyzed_plan_text (with a
  /// `source: plan-cache` summary line instead of optimizer decisions —
  /// planning was skipped, so there are none).
  Result<QueryResult> RunPreparedAnalyzed(const PreparedPlan& prepared,
                                          QueryGuard* guard = nullptr);

  /// Metrics of the most recent Run, populated even when the query failed —
  /// a tripped guardrail reports consumed-vs-limit here (e.g.
  /// rows_scanned against limits().max_rows_scanned). Snapshot under a
  /// lock: with concurrent queries on one engine you get some recent
  /// query's complete metrics, never a torn mix.
  RuntimeMetrics last_metrics() const {
    std::lock_guard<std::mutex> lock(last_metrics_mu_);
    return last_metrics_;
  }

 private:
  Result<QueryResult> Prepare(const std::string& sql, bool execute,
                              QueryGuard* guard, bool analyze);

  Result<QueryResult> PreparedImpl(const PreparedPlan& prepared,
                                   QueryGuard* guard, bool analyze);

  /// The query's trace collector at the configured level, raised to kFull
  /// for EXPLAIN ANALYZE or a trace export path; null when tracing is off.
  std::shared_ptr<TraceCollector> StartTrace(int64_t query_id,
                                             bool analyze) const;

  /// The tail shared by planned and cached runs: the degraded event, then,
  /// when `execute`, the run of result.plan under `guard` (else the
  /// configured limits) with spilling and order verification, the engine
  /// series, the exec trace events and the EXPLAIN ANALYZE text; last the
  /// trace export.
  Result<QueryResult> Finish(QueryResult result, bool execute,
                             QueryGuard* guard, bool analyze);

  void SnapshotMetrics(const RuntimeMetrics& metrics) {
    std::lock_guard<std::mutex> lock(last_metrics_mu_);
    last_metrics_ = metrics;
  }

  Database* db_;
  OptimizerConfig config_;
  mutable std::mutex last_metrics_mu_;
  RuntimeMetrics last_metrics_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_ENGINE_H_
