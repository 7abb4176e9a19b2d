#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/metrics.h"
#include "common/str_util.h"
#include "exec/analyze.h"
#include "optimizer/cost_model.h"
#include "parser/parser.h"
#include "qgm/rewrite.h"

namespace ordopt {

namespace {

/// Engine-assigned query ids for runs whose guard carries none (standalone
/// engines, the shell): a process-wide sequence, distinct from 0 so every
/// query is correlatable. Service-run queries arrive with a ticket id
/// already stamped on the guard and keep it.
int64_t NextQueryId() {
  static std::atomic<int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The correlation id for this run: the guard's (ticket-assigned, stable
/// across retries) when present, else the next engine-assigned id.
int64_t ResolveQueryId(const QueryGuard* guard) {
  if (guard != nullptr && guard->query_id() != 0) return guard->query_id();
  return NextQueryId();
}

/// Per-query series recorded after every executed run (success or failure
/// — a tripped query's consumption is exactly what an operator wants to
/// see). Names follow the `subsystem.metric[_unit]` rule of DESIGN.md §13.
void RecordEngineMetrics(MetricsRegistry* registry, const QueryResult& result) {
  if (!result.planned_from_cache) {
    registry->GetHistogram("engine.plan_us")
        ->Record(static_cast<int64_t>(result.plan_seconds * 1e6));
  }
  registry->GetHistogram("engine.exec_us")
      ->Record(static_cast<int64_t>(result.elapsed_seconds * 1e6));
  const RuntimeMetrics& m = result.metrics;
  if (m.spill_runs > 0) {
    registry->GetCounter("engine.spill_runs")->Add(m.spill_runs);
    registry->GetCounter("engine.spill_rows")->Add(m.spill_rows);
    registry->GetCounter("engine.spill_bytes")->Add(m.spill_bytes);
  }
  if (m.spill_retries > 0) {
    registry->GetCounter("engine.spill_retries")->Add(m.spill_retries);
  }
  registry->GetHistogram("engine.buffered_rows_peak")
      ->Record(m.rows_buffered_peak);
  registry->GetHistogram("engine.buffered_bytes_peak")
      ->Record(m.bytes_buffered_peak);
  // Estimate quality per operator, whenever per-operator stats were
  // collected (a cached plan's estimates are those of its planning
  // literals, so a stale generic estimate shows up here). Rounded to the
  // nearest integer: 1 means within 1.5x.
  if (!result.op_profile.empty()) {
    Histogram* q_error = registry->GetHistogram("exec.q_error");
    for (const OperatorProfile& p : result.op_profile) {
      q_error->Record(std::llround(
          QError(p.node->props.cardinality, p.stats.rows_out)));
    }
  }
}

/// Effective runtime order verification: the config switch, with the
/// ORDOPT_VERIFY_ORDERS environment variable as a default so whole test
/// suites can run checked without touching call sites ("0" disables).
bool EffectiveVerifyOrders(const OptimizerConfig& config) {
  if (config.verify_orders) return true;
  const char* env = std::getenv("ORDOPT_VERIFY_ORDERS");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Trace export destination: the config path, falling back to the
/// ORDOPT_TRACE environment variable.
std::string EffectiveTracePath(const OptimizerConfig& config) {
  if (!config.trace_path.empty()) return config.trace_path;
  const char* env = std::getenv("ORDOPT_TRACE");
  return env != nullptr ? std::string(env) : std::string();
}

/// One exec-phase event per operator (post-order sequence matches
/// op_profile), then the query-level metrics as a nested object; shared by
/// the planned and the cached execution paths.
void EmitExecEvents(TraceCollector* trace, const QueryResult& result,
                    const ColumnNamer& namer) {
  int64_t idx = 0;
  for (const OperatorProfile& p : result.op_profile) {
    TraceEvent& e = trace->Add("exec", "operator");
    e.SetInt("op", idx++);
    e.Set("label", NodeLabel(*p.node, namer));
    e.SetDouble("est_rows", p.node->props.cardinality);
    e.SetInt("rows_out", p.stats.rows_out);
    e.SetInt("next_calls", p.stats.next_calls);
    e.SetInt("open_ns", p.stats.open_ns);
    e.SetInt("next_ns", p.stats.next_ns);
#define ORDOPT_SET_COUNTER(field) e.SetInt(#field, p.stats.field);
    ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_SET_COUNTER)
#undef ORDOPT_SET_COUNTER
    e.SetInt("buffered_rows_peak", p.stats.buffered_rows_peak);
  }
  TraceEvent& m = trace->Add("exec", "metrics");
  m.SetRaw("metrics", result.metrics.ToJson());
  m.SetBool("planned_from_cache", result.planned_from_cache);
  m.SetBool("degraded", result.degraded);
}

/// The EXPLAIN ANALYZE service summary line: where the plan came from (and,
/// for a cached plan, that its estimates are those of planning time), the
/// query's correlation id (joins this output to the trace export and the
/// metrics series), and whether the run executed in degraded mode (retry
/// attempts are stamped by the QueryService after completion — the engine
/// cannot know them).
std::string ServiceSummaryLine(const QueryResult& result) {
  std::string line = "service: source=";
  // A cached plan's est= figures were made at its planning literals, which
  // need not be the literals this run bound.
  line += result.planned_from_cache
              ? "plan-cache estimates=planning-literals"
              : "planner";
  if (result.query_id != 0) {
    line += StrFormat(" query_id=%lld", static_cast<long long>(result.query_id));
  }
  if (result.degraded) line += " degraded=true";
  line += "\n";
  return line;
}

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A request parsed, bound and rewritten: its literal values by slot and
/// its QGM.
struct BoundRequest {
  std::vector<Value> slot_values;
  std::unique_ptr<Query> query;
};

Result<BoundRequest> BindRequest(const std::string& sql, const Database& db) {
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, BindQuery(*stmt, db));
  MergeDerivedTables(query.get());
  return BoundRequest{std::move(stmt->slot_values), std::move(query)};
}

/// Fills the fields that name the request and its plan (result->plan):
/// column names, plan and QGM text, and a self-contained namer (the bound
/// column-name map is copied behind a shared_ptr so the renderer outlives
/// the Query).
void DescribeRequest(const Query& query, QueryResult* result) {
  for (const OutputColumn& oc : query.root->outputs) {
    result->column_names.push_back(oc.name);
  }
  result->plan_text = result->plan->ToString(query.namer());
  result->qgm_text = query.ToString();
  auto names =
      std::make_shared<std::unordered_map<ColumnId, std::string, ColumnIdHash>>(
          query.column_names);
  result->namer = [names](const ColumnId& id) -> std::string {
    auto it = names->find(id);
    return it != names->end() ? it->second : DefaultColumnName(id);
  };
}

/// Literal equality as the binder sees it (BoundExpr::Equals): same type,
/// same value.
bool SameLiteral(const Value& a, const Value& b) {
  return a.type() == b.type() && a == b;
}

}  // namespace

std::string GenericPlanMismatch(const PreparedPlan& prepared,
                                const std::vector<Value>& slot_values,
                                const Query& query, const CostModel& cost) {
  const std::vector<Value>& planned = prepared.slot_values;
  if (planned.size() != slot_values.size()) {
    return StrFormat("%zu slots, planned with %zu", slot_values.size(),
                     planned.size());
  }
  for (size_t i = 0; i < slot_values.size(); ++i) {
    if (slot_values[i].type() != planned[i].type()) {
      return StrFormat("slot %zu is %s, planned as %s", i,
                       DataTypeName(slot_values[i].type()),
                       DataTypeName(planned[i].type()));
    }
  }
  for (size_t i = 0; i < slot_values.size(); ++i) {
    for (size_t j = i + 1; j < slot_values.size(); ++j) {
      const bool now = SameLiteral(slot_values[i], slot_values[j]);
      if (now != SameLiteral(planned[i], planned[j])) {
        return StrFormat("slots %zu and %zu are %s, planned %s", i, j,
                         now ? "equal" : "distinct",
                         now ? "distinct" : "equal");
      }
    }
  }
  auto moved = [&](const Predicate& p) -> std::string {
    if ((p.kind != Predicate::Kind::kColEqConst &&
         p.kind != Predicate::Kind::kColCmpConst) ||
        p.constant_slot < 0) {
      return "";
    }
    Predicate at_plan = p;
    at_plan.constant = planned[static_cast<size_t>(p.constant_slot)];
    // Floored so a zero estimate still compares as a finite ratio.
    const double kFloor = 1e-9;
    const double now = std::max(cost.Selectivity(p, query), kFloor);
    const double then = std::max(cost.Selectivity(at_plan, query), kFloor);
    if (std::max(now / then, then / now) <= kCustomPlanSelectivityFactor) {
      return "";
    }
    return StrFormat("selectivity of %s is %.3g, planned %.3g",
                     p.ToString().c_str(), now, then);
  };
  for (const auto& box : query.boxes) {
    for (const Predicate& p : box->predicates) {
      std::string why = moved(p);
      if (!why.empty()) return why;
    }
    for (const OuterJoinStep& step : box->outer_joins) {
      for (const Predicate& p : step.on_predicates) {
        std::string why = moved(p);
        if (!why.empty()) return why;
      }
    }
  }
  return "";
}

std::shared_ptr<TraceCollector> QueryEngine::StartTrace(int64_t query_id,
                                                        bool analyze) const {
  // The configured level, raised to kFull when EXPLAIN ANALYZE or a trace
  // export path asks for per-operator stats; with everything off the hot
  // path allocates no collector.
  TraceLevel level = config_.trace_level;
  if (analyze || !EffectiveTracePath(config_).empty()) {
    level = TraceLevel::kFull;
  }
  if (level == TraceLevel::kOff) return nullptr;
  auto trace = std::make_shared<TraceCollector>(level);
  trace->set_query_id(query_id);
  return trace;
}

Result<QueryResult> QueryEngine::Finish(QueryResult result, bool execute,
                                        QueryGuard* guard, bool analyze) {
  result.degraded = config_.degraded_mode;
  TraceCollector* trace = result.trace.get();
  if (trace != nullptr && config_.degraded_mode) {
    // Degraded-mode admissions are a service-level decision; the event
    // makes them visible in the per-query trace export.
    trace->Add("service", "degraded")
        .SetInt("sort_memory_rows", config_.cost_params.sort_memory_rows);
  }

  if (execute) {
    // Queries run under the engine's configured limits unless the caller
    // supplied a guard of their own. Sorts spill under the same row budget
    // the cost model priced; the manager lives inside ExecutePlan, scoped
    // to this query.
    QueryGuard config_guard(config_.limits);
    if (guard == nullptr) guard = &config_guard;
    const bool collect = trace != nullptr && trace->collect_exec();
    SpillConfig spill_config;
    spill_config.sort_memory_rows = config_.cost_params.sort_memory_rows;
    spill_config.temp_dir = config_.spill_temp_dir;
    spill_config.retry = config_.spill_retry;
    auto start = std::chrono::steady_clock::now();
    Result<std::vector<Row>> rows = ExecutePlan(
        result.plan, &result.metrics, guard, &spill_config,
        collect ? &result.op_profile : nullptr,
        EffectiveVerifyOrders(config_), config_.batch_rows);
    result.elapsed_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    // Keep consumed-vs-limit visible, and record the series, even when the
    // query failed: a Result<QueryResult> error drops the metrics it
    // carried.
    SnapshotMetrics(result.metrics);
    if (config_.metrics != nullptr) {
      RecordEngineMetrics(config_.metrics, result);
    }
    ORDOPT_RETURN_NOT_OK(rows.status());
    result.rows = std::move(rows).value();

    if (collect) EmitExecEvents(trace, result, result.namer);
    if (analyze) {
      // A cached run's trace holds no optimizer events, so it renders no
      // decisions block.
      result.analyzed_plan_text =
          RenderAnalyzedPlan(result.plan, result.op_profile, result.namer) +
          ServiceSummaryLine(result);
      std::string decisions = RenderDecisions(*trace);
      if (!decisions.empty()) {
        result.analyzed_plan_text += "decisions:\n" + decisions;
      }
    }
  }

  // Export only after the query itself succeeded: a failed query reports
  // its own error, and WriteJsonLines never leaves a partial file.
  if (trace != nullptr) {
    const std::string trace_path = EffectiveTracePath(config_);
    if (!trace_path.empty()) {
      ORDOPT_RETURN_NOT_OK(
          trace->WriteJsonLines(trace_path, config_.spill_retry));
    }
  }
  return result;
}

Status QueryEngine::Optimize(const Query& query,
                             std::chrono::steady_clock::time_point start,
                             QueryResult* result) const {
  Planner planner(query, config_, result->trace.get());
  ORDOPT_ASSIGN_OR_RETURN(PlanRef plan, planner.BuildPlan());
  result->plan_seconds = SecondsSince(start);
  result->plan = plan;
  result->plans_generated = planner.plans_generated();
  result->plans_retained = planner.plans_retained();
  result->reduce_cache_hits = planner.reduce_cache_hits();
  result->reduce_cache_misses = planner.reduce_cache_misses();
  // Mirrored into the runtime metrics so ToJson/ToString (and therefore the
  // trace export's exec.metrics event) carry the planner's cache behavior.
  result->metrics.reduce_cache_hits = planner.reduce_cache_hits();
  result->metrics.reduce_cache_misses = planner.reduce_cache_misses();
  return Status::OK();
}

Result<QueryResult> QueryEngine::Prepare(const std::string& sql, bool execute,
                                         QueryGuard* guard, bool analyze) {
  QueryResult result;
  result.query_id = ResolveQueryId(guard);
  const auto start = std::chrono::steady_clock::now();
  ORDOPT_ASSIGN_OR_RETURN(BoundRequest request, BindRequest(sql, *db_));
  result.trace = StartTrace(result.query_id, analyze);
  result.slot_values = std::move(request.slot_values);
  ORDOPT_RETURN_NOT_OK(Optimize(*request.query, start, &result));
  DescribeRequest(*request.query, &result);
  return Finish(std::move(result), execute, guard, analyze);
}

Result<QueryResult> QueryEngine::Explain(const std::string& sql) {
  return Prepare(sql, /*execute=*/false, /*guard=*/nullptr,
                 /*analyze=*/false);
}

Result<QueryResult> QueryEngine::Run(const std::string& sql) {
  return Prepare(sql, /*execute=*/true, /*guard=*/nullptr, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::Run(const std::string& sql,
                                     QueryGuard* guard) {
  return Prepare(sql, /*execute=*/true, guard, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::RunAnalyzed(const std::string& sql) {
  return Prepare(sql, /*execute=*/true, /*guard=*/nullptr, /*analyze=*/true);
}

Result<QueryResult> QueryEngine::RunPrepared(const PreparedPlan& prepared,
                                             const std::string& sql,
                                             QueryGuard* guard) {
  return PreparedImpl(prepared, sql, guard, /*analyze=*/false);
}

Result<QueryResult> QueryEngine::RunPreparedAnalyzed(
    const PreparedPlan& prepared, const std::string& sql, QueryGuard* guard) {
  return PreparedImpl(prepared, sql, guard, /*analyze=*/true);
}

Result<QueryResult> QueryEngine::PreparedImpl(const PreparedPlan& prepared,
                                              const std::string& sql,
                                              QueryGuard* guard,
                                              bool analyze) {
  if (prepared.plan == nullptr) {
    return Status::InvalidArgument("RunPrepared: prepared plan is null");
  }
  QueryResult result;
  result.query_id = ResolveQueryId(guard);
  const auto start = std::chrono::steady_clock::now();
  ORDOPT_ASSIGN_OR_RETURN(BoundRequest request, BindRequest(sql, *db_));
  result.trace = StartTrace(result.query_id, analyze);
  result.slot_values = std::move(request.slot_values);
  result.custom_plan_reason =
      GenericPlanMismatch(prepared, result.slot_values, *request.query,
                          CostModel(config_.cost_params));
  if (!result.custom_plan_reason.empty()) {
    // Not provably the same plan: plan this request fresh. The caller does
    // not publish it; the cached entry keeps serving its template.
    if (result.trace != nullptr) {
      result.trace->Add("optimizer", "plan_cache.custom_plan")
          .Set("reason", result.custom_plan_reason);
    }
    ORDOPT_RETURN_NOT_OK(Optimize(*request.query, start, &result));
    DescribeRequest(*request.query, &result);
    return Finish(std::move(result), /*execute=*/true, guard, analyze);
  }
  result.plan = BindPlanSlots(prepared.plan, result.slot_values,
                              request.query->namer());
  result.plan_seconds = SecondsSince(start);
  result.planned_from_cache = true;
  DescribeRequest(*request.query, &result);
  // There are no optimizer events to record: the plan.cached event says
  // why, and whether the plan runs at literals other than its planning
  // ones.
  if (result.trace != nullptr) {
    TraceEvent& e = result.trace->Add("service", "plan.cached");
    e.SetBool("planned_from_cache", true);
    e.SetBool("generic", !std::equal(prepared.slot_values.begin(),
                                     prepared.slot_values.end(),
                                     result.slot_values.begin(),
                                     result.slot_values.end(), SameLiteral));
    e.SetInt("slots", static_cast<int64_t>(result.slot_values.size()));
    if (config_.degraded_mode) e.SetBool("degraded", true);
  }
  return Finish(std::move(result), /*execute=*/true, guard, analyze);
}

}  // namespace ordopt
