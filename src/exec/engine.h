#ifndef ORDOPT_EXEC_ENGINE_H_
#define ORDOPT_EXEC_ENGINE_H_

#include <chrono>
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
  /// Wall time spent in parse + bind + optimize; for a cached execution,
  /// parse + bind + binding the request's literals into the cached plan.
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

  /// True when the plan was taken from a plan cache and optimization was
  /// skipped (RunPrepared bound this request's literals into it);
  /// plans_generated and the reduce-cache counters are 0 for such runs.
  bool planned_from_cache = false;

  /// The request's literal values by parser slot (SelectStmt::slot_values).
  std::vector<Value> slot_values;
  /// RunPrepared only: why the cached plan could not serve this request,
  /// which was therefore planned fresh (a custom plan); empty when it was
  /// served. See DESIGN.md §11.
  std::string custom_plan_reason;

  /// Service resilience annotations (see service/resilience.h). The engine
  /// sets `degraded` from OptimizerConfig::degraded_mode; `retry_attempts`
  /// is stamped by the QueryService with how many times this query was
  /// re-admitted after a transient failure before it produced this result.
  bool degraded = false;
  int retry_attempts = 0;

  /// Column renderer for this query's plan (captures the bound column
  /// names by value, so it stays valid after the Query object dies), used
  /// by the EXPLAIN ANALYZE rendering.
  ColumnNamer namer;

  double SimulatedElapsedSeconds() const {
    return metrics.SimulatedElapsedSeconds();
  }
};

/// A cached plan serves a request only while no parameterized
/// column-vs-constant predicate's estimated selectivity at the request's
/// literal differs from the one at the planning literal by more than this
/// factor either way; beyond it the request is planned fresh.
inline constexpr double kCustomPlanSelectivityFactor = 4.0;

/// A *generic plan*: the optimized plan of one query template, which
/// RunPrepared executes for any request of that template by binding the
/// request's literals into a per-execution copy (BindPlanSlots) — the
/// currency of the service's plan cache. The plan tree is immutable and
/// shared; holders may execute it from many threads at once. Table
/// pointers inside the plan stay valid as long as the Database outlives
/// the holder, and the plan is only correct for the stats epoch it was
/// built under — cache keys carry that epoch (see service/plan_cache.h).
struct PreparedPlan {
  PlanRef plan;
  /// The literals it was planned with, by parser slot: the serve rule
  /// compares a request's literals against them.
  std::vector<Value> slot_values;
  /// The plan as rendered at planning time (diagnostics; a cached run
  /// renders its own text at the request's literals).
  std::string plan_text;

  /// Captures the planned artifacts of a QueryResult (from Explain or a
  /// full Run) for later re-execution.
  static PreparedPlan FromResult(const QueryResult& result) {
    PreparedPlan p;
    p.plan = result.plan;
    p.slot_values = result.slot_values;
    p.plan_text = result.plan_text;
    return p;
  }
};

/// The serve rule of a generic plan (DESIGN.md §11): `prepared` serves a
/// request whose literals are `slot_values` (bound as `query`) only when
/// the request is provably planned the same way. The slots must agree in
/// number and type. The equality pattern among slots must agree, because
/// the binder compares literal values when it shares identical aggregates
/// and matches ORDER BY items to select items. And no parameterized
/// column-vs-constant predicate may move its estimated selectivity by more
/// than kCustomPlanSelectivityFactor, because cost is the only part of
/// planning that reads a literal's value. Returns why not, or "" when the
/// plan serves.
std::string GenericPlanMismatch(const PreparedPlan& prepared,
                                const std::vector<Value>& slot_values,
                                const Query& query, const CostModel& cost);

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

  /// The plan-cache hit path: executes the cached generic plan for the
  /// request `sql` (a text of the plan's template). Parses, binds and
  /// rewrites `sql`, then, when `prepared` provably serves it (same slot
  /// count and slot types, same equality pattern among slots, and no
  /// parameterized predicate's selectivity moved by more than
  /// kCustomPlanSelectivityFactor), executes a copy of the plan bound to
  /// the request's literals — optimization is skipped and
  /// result.planned_from_cache is set. Otherwise it plans `sql` fresh and
  /// says why in result.custom_plan_reason and a
  /// `plan_cache.custom_plan` optimizer decision. Plan and QGM text,
  /// column names and EXPLAIN ANALYZE name the request's literals. Runs
  /// under `guard` when non-null, else under the engine's configured
  /// limits; spilling, guardrails, and runtime order verification behave
  /// exactly as in Run. With tracing configured (trace_level / trace_path
  /// / ORDOPT_TRACE) a served run records a `plan.cached` event plus, at
  /// kFull, per-operator execution stats.
  Result<QueryResult> RunPrepared(const PreparedPlan& prepared,
                                  const std::string& sql,
                                  QueryGuard* guard = nullptr);

  /// EXPLAIN ANALYZE for a cached plan: like RunPrepared but forces
  /// per-operator stats collection and fills analyzed_plan_text (with a
  /// `source: plan-cache` summary line instead of optimizer decisions —
  /// planning was skipped, so there are none).
  Result<QueryResult> RunPreparedAnalyzed(const PreparedPlan& prepared,
                                          const std::string& sql,
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
                                   const std::string& sql, QueryGuard* guard,
                                   bool analyze);

  /// Optimizes `query` into `result` (plan and planner counters), with
  /// planning time measured from `start`.
  Status Optimize(const Query& query,
                  std::chrono::steady_clock::time_point start,
                  QueryResult* result) const;

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
