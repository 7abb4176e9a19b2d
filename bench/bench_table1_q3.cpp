// Reproduces Table 1 (§8.1): elapsed time for TPC-D Query 3 with order
// optimization enabled (production DB2) vs disabled, averaged over five
// runs. The paper reports 192 s vs 393 s (ratio 2.04) on a 1 GB database;
// we report simulated elapsed time on the paper's hardware profile
// (1996-class disks + CPU) at a configurable scale factor. The shape to
// check: the production configuration wins by roughly 2x.
//
// Both configurations run the DB2/CS engine profile (no hash join / hash
// aggregation — DB2/CS had neither in 1996); a supplementary run with hash
// operators enabled shows the modern trade-off.
//
// Usage: bench_table1_q3 [--sf=0.02] [--runs=5] [--sort-budget=N]
//                        [--guard-overhead] [--spill-check] [--explain]
//                        [--trace-overhead]
//
// --sort-budget=N sets cost_params.sort_memory_rows for every mode, so a
// small N forces Q3's sorts through the external-merge spill path.
//
// --guard-overhead instead measures the wall-clock cost of the execution
// guardrails on Q3: unlimited QueryLimits (every limit check short-
// circuits) vs generous finite limits (every per-row check is live but
// never trips). The delta is the price of the safety net.
//
// --spill-check instead runs Q3 once in memory and once with the sort
// budget forced below the input size, verifies the two row vectors are
// identical, and reports the spill metrics plus the wall-clock cost of
// spilling.
//
// --explain instead runs Q3 once under EXPLAIN ANALYZE and prints the
// annotated plan plus an est-vs-actual row-count summary with q-errors —
// how well the cost model's cardinalities track reality.
//
// --trace-overhead instead measures the wall-clock cost of optimizer
// tracing on Q3: trace off vs TraceLevel::kOptimizer (identical execution
// path, events recorded at plan time only). Exits nonzero above 2%.
// kFull (per-operator stats) overhead is reported informationally.
//
// --plan-time instead measures planner wall time (plan-only, no execution):
// on Q3, average milliseconds per optimization, plans generated and
// retained, and the reduce-cache hit rate; on region revenue (a 6-way join,
// the most expensive query to plan), the median planning time under the
// DB2/CS and hash profiles with order optimization on and off, the on/off
// ratio and plans generated. --json=PATH additionally emits the numbers as
// a JSON object (the check.sh --plan-bench gate reads it).
//
// --batch-sweep instead sweeps the execution batch size (1, 256, 1024,
// 4096) on Q3 and reports exec wall time per size plus the speedup vs
// batch size 1 (single-row batches through the same code path). Row
// streams must be identical across sizes. --json=PATH emits the
// numbers (the check.sh --batch gate reads it and enforces >= 1.5x at
// batch size 1024).
//
// --parallel-sweep instead runs Q3 (under the DB2/CS and the hash
// profiles) and the pricing summary (hash profile) at 1/2/4 exchange workers
// (OptimizerConfig::parallel_workers), asserts every parallel row stream
// is identical to serial, and reports the wall-clock speedup next to the
// modeled critical-path speedup from per-thread CPU time, and the scan
// self time per scanned row at 1 and 4 workers from one analyzed run each
// (the parallel scan penalty; informational). --json=PATH emits the
// numbers (the check.sh --parallel gate reads it and enforces >= 1.8x
// wall-clock speedup at 4 workers on each query).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "exec/analyze.h"
#include "exec/engine.h"
#include "tpcd/tpcd.h"

using namespace ordopt;

namespace {

struct ModeResult {
  double sim_seconds = 0;
  double wall_seconds = 0;
  RuntimeMetrics metrics;
  std::string plan;
  std::vector<Row> rows;
};

ModeResult RunMode(Database* db, bool order_opt, bool hash_ops, int runs,
                   int64_t sort_budget = 0) {
  OptimizerConfig cfg;
  cfg.enable_order_optimization = order_opt;
  cfg.enable_hash_join = hash_ops;
  cfg.enable_hash_grouping = hash_ops;
  if (sort_budget != 0) cfg.cost_params.sort_memory_rows = sort_budget;
  QueryEngine engine(db, cfg);
  ModeResult out;
  for (int i = 0; i < runs; ++i) {
    Result<QueryResult> r = engine.Run(tpcd_queries::kQuery3);
    if (!r.ok()) {
      std::fprintf(stderr, "Q3 failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    out.sim_seconds += r.value().SimulatedElapsedSeconds();
    out.wall_seconds += r.value().elapsed_seconds;
    if (i == 0) {
      out.metrics = r.value().metrics;
      out.plan = r.value().plan_text;
      out.rows = std::move(r.value().rows);
    }
  }
  out.sim_seconds /= runs;
  out.wall_seconds /= runs;
  return out;
}

double RunGuardMode(Database* db, QueryLimits limits, int runs) {
  OptimizerConfig cfg;
  cfg.enable_order_optimization = true;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  cfg.limits = limits;
  QueryEngine engine(db, cfg);
  double wall = 0;
  for (int i = 0; i < runs; ++i) {
    Result<QueryResult> r = engine.Run(tpcd_queries::kQuery3);
    if (!r.ok()) {
      std::fprintf(stderr, "Q3 failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    wall += r.value().elapsed_seconds;
  }
  return wall / runs;
}

int GuardOverhead(Database* db, int runs) {
  QueryLimits generous;
  generous.deadline_seconds = 3600.0;
  generous.max_rows_scanned = int64_t{1} << 40;
  generous.max_rows_produced = int64_t{1} << 40;
  generous.max_buffered_rows = int64_t{1} << 40;
  generous.max_buffered_bytes = int64_t{1} << 50;

  // Warm-up, then interleave to keep cache/frequency drift symmetric.
  RunGuardMode(db, QueryLimits{}, 1);
  double unlimited = 0, guarded = 0;
  for (int i = 0; i < 3; ++i) {
    unlimited += RunGuardMode(db, QueryLimits{}, runs);
    guarded += RunGuardMode(db, generous, runs);
  }
  unlimited /= 3;
  guarded /= 3;
  double pct = (guarded - unlimited) / unlimited * 100.0;
  std::printf("--- guardrail overhead on Q3 (wall clock, %d runs x3) ---\n",
              runs);
  std::printf("unlimited limits:       %.4fs\n", unlimited);
  std::printf("generous finite limits: %.4fs\n", guarded);
  std::printf("overhead: %+.2f%%   [target: < 2%%]\n", pct);
  return 0;
}

// Forced-spill correctness + cost check: the acceptance gate for the
// external-merge sort. Q3 with the budget below its sort input must be
// row-identical to the in-memory run and report spilled-run metrics.
int SpillCheck(Database* db, int runs) {
  ModeResult in_memory =
      RunMode(db, /*order_opt=*/true, /*hash=*/false, runs);
  // Q3's largest sort input at SF=0.02 is a few thousand rows; 64 rows
  // (one page) forces dozens of runs through the k-way merge.
  const int64_t budget = 64;
  ModeResult spilled =
      RunMode(db, /*order_opt=*/true, /*hash=*/false, runs, budget);

  std::printf("--- forced-spill check (sort budget = %lld rows) ---\n",
              static_cast<long long>(budget));
  std::printf("%-24s %12s %12s\n", "", "in-memory", "spilled");
  std::printf("%-24s %12zu %12zu\n", "result rows", in_memory.rows.size(),
              spilled.rows.size());
  std::printf("%-24s %11.4fs %11.4fs\n", "elapsed (wall)",
              in_memory.wall_seconds, spilled.wall_seconds);
  std::printf("%-24s %12lld %12lld\n", "spilled runs",
              static_cast<long long>(in_memory.metrics.spill_runs),
              static_cast<long long>(spilled.metrics.spill_runs));
  std::printf("%-24s %12lld %12lld\n", "spilled rows",
              static_cast<long long>(in_memory.metrics.spill_rows),
              static_cast<long long>(spilled.metrics.spill_rows));
  std::printf("%-24s %12lld %12lld\n", "spilled bytes",
              static_cast<long long>(in_memory.metrics.spill_bytes),
              static_cast<long long>(spilled.metrics.spill_bytes));
  std::printf("%-24s %12lld %12lld\n", "I/O retries",
              static_cast<long long>(in_memory.metrics.spill_retries),
              static_cast<long long>(spilled.metrics.spill_retries));
  std::printf("%-24s %12lld %12lld\n", "buffered rows peak",
              static_cast<long long>(in_memory.metrics.rows_buffered_peak),
              static_cast<long long>(spilled.metrics.rows_buffered_peak));
  bool identical = in_memory.rows == spilled.rows;
  bool spilled_something = spilled.metrics.spill_runs > 0;
  std::printf("\nrows identical to in-memory path: %s\n",
              identical ? "YES" : "NO  <-- FAIL");
  std::printf("spill path exercised: %s\n",
              spilled_something ? "YES" : "NO  <-- FAIL");
  return identical && spilled_something ? 0 : 1;
}

// EXPLAIN ANALYZE on Q3: annotated plan + estimate-quality summary.
int ExplainQ3(Database* db) {
  OptimizerConfig cfg;
  cfg.enable_order_optimization = true;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  QueryEngine engine(db, cfg);
  Result<QueryResult> r = engine.RunAnalyzed(tpcd_queries::kQuery3);
  if (!r.ok()) {
    std::fprintf(stderr, "Q3 failed: %s\n", r.status().ToString().c_str());
    return 1;
  }
  const QueryResult& q = r.value();
  std::printf("--- EXPLAIN ANALYZE: Query 3, production configuration ---\n");
  std::printf("%s\n", q.analyzed_plan_text.c_str());

  std::vector<EstActualRow> rows = EstVsActualRows(q.plan, q.op_profile);
  std::printf("--- est vs actual rows (q-error = max(est/act, act/est)) "
              "---\n");
  std::printf("%-52s %12s %12s %8s\n", "operator", "est", "act", "q-err");
  double worst = 1.0;
  for (const EstActualRow& row : rows) {
    std::string label = row.label.size() > 52 ? row.label.substr(0, 49) + "..."
                                              : row.label;
    std::printf("%-52s %12.0f %12lld %8.2f\n", label.c_str(), row.est_rows,
                static_cast<long long>(row.act_rows), row.q_error);
    if (row.q_error > worst) worst = row.q_error;
  }
  std::printf("\nworst q-error: %.2f over %zu operators\n", worst,
              rows.size());
  return 0;
}

// Tracing overhead on Q3. The gated comparison is off vs kOptimizer —
// the execution path is bit-identical (no collector reaches the
// operators), so the delta is plan-time event recording and must sit
// within noise. kFull turns on per-operator timing/stat collection and is
// reported for information.
void RunTraceMode(Database* db, TraceLevel level, int runs,
                  std::vector<double>* samples) {
  OptimizerConfig cfg;
  cfg.enable_order_optimization = true;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  cfg.trace_level = level;
  QueryEngine engine(db, cfg);
  for (int i = 0; i < runs; ++i) {
    Result<QueryResult> r = engine.Run(tpcd_queries::kQuery3);
    if (!r.ok()) {
      std::fprintf(stderr, "Q3 failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    samples->push_back(r.value().elapsed_seconds);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int TraceOverhead(Database* db, int runs) {
  // Wall-clock noise on a ~10ms workload dwarfs a 2% budget, so the
  // estimate must cancel drift rather than average it: each iteration
  // measures all three modes back-to-back (per-mode median of `runs`
  // executions), yielding one paired overhead sample; the gate compares
  // the median across iterations. CPU-frequency drift that spans an
  // iteration shifts both sides of a pair equally and cancels; a mean of
  // unpaired batches let one preempted batch blow past the gate.
  constexpr int kIterations = 9;
  std::vector<double> warm;
  RunTraceMode(db, TraceLevel::kOff, 1, &warm);
  std::vector<double> off_meds, opt_pcts, full_pcts;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<double> off, optimizer, full;
    RunTraceMode(db, TraceLevel::kOff, runs, &off);
    RunTraceMode(db, TraceLevel::kOptimizer, runs, &optimizer);
    RunTraceMode(db, TraceLevel::kFull, runs, &full);
    double o = Median(off);
    off_meds.push_back(o);
    opt_pcts.push_back((Median(optimizer) - o) / o * 100.0);
    full_pcts.push_back((Median(full) - o) / o * 100.0);
  }
  double off_med = Median(off_meds);
  double opt_pct = Median(opt_pcts);
  double full_pct = Median(full_pcts);
  std::printf(
      "--- tracing overhead on Q3 (paired medians, %d runs x%d) ---\n",
      runs, kIterations);
  std::printf("trace off:             %.4fs\n", off_med);
  std::printf("kOptimizer (events):   %+.2f%%  [target: < 2%%]\n", opt_pct);
  std::printf("kFull (op stats):      %+.2f%%  (informational)\n", full_pct);
  return opt_pct < 2.0 ? 0 : 1;
}

// Region revenue planning under one engine profile, with order optimization
// on and off.
struct RegionPlanTime {
  const char* profile;
  bool hash;
  double on_ms = 0.0;
  double off_ms = 0.0;
  int64_t plans_on = 0;
  int64_t plans_off = 0;
};

// Median planning time of region revenue per (profile, order optimization)
// configuration. The configurations are interleaved within each iteration
// so wall-clock drift on a busy host lands on all of them alike.
bool TimeRegionPlanning(Database* db, int iters,
                        std::vector<RegionPlanTime>* profiles) {
  struct Config {
    RegionPlanTime* out;
    bool order_opt;
    std::unique_ptr<QueryEngine> engine;
    std::vector<double> ms;
  };
  std::vector<Config> configs;
  configs.reserve(profiles->size() * 2);
  for (RegionPlanTime& p : *profiles) {
    for (bool order_opt : {true, false}) {
      OptimizerConfig cfg;
      cfg.enable_order_optimization = order_opt;
      cfg.enable_hash_join = p.hash;
      cfg.enable_hash_grouping = p.hash;
      configs.push_back(
          Config{&p, order_opt, std::make_unique<QueryEngine>(db, cfg), {}});
    }
  }
  for (int i = -1; i < iters; ++i) {  // i == -1 warms up
    for (Config& c : configs) {
      auto start = std::chrono::steady_clock::now();
      Result<QueryResult> r = c.engine->Explain(tpcd_queries::kRegionRevenue);
      auto end = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "region plan failed: %s\n",
                     r.status().ToString().c_str());
        return false;
      }
      if (i < 0) continue;
      c.ms.push_back(
          std::chrono::duration<double, std::milli>(end - start).count());
      (c.order_opt ? c.out->plans_on : c.out->plans_off) =
          r.value().plans_generated;
    }
  }
  for (Config& c : configs) {
    (c.order_opt ? c.out->on_ms : c.out->off_ms) = Median(c.ms);
  }
  return true;
}

// Planning-time microbenchmark: optimize Q3, then region revenue,
// repeatedly without executing them. This is the workload the reduce cache,
// memo and order-context work target, so the numbers double as the
// regression baseline for check.sh --plan-bench.
int PlanTime(Database* db, int runs, const std::string& json_path) {
  OptimizerConfig cfg;
  cfg.enable_order_optimization = true;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  QueryEngine engine(db, cfg);

  // Warm-up (parser/catalog caches, allocator).
  if (!engine.Explain(tpcd_queries::kQuery3).ok()) {
    std::fprintf(stderr, "Q3 plan failed\n");
    return 1;
  }

  const int iters = runs * 20;  // planning is fast; amplify for stable timing
  QueryResult last;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    Result<QueryResult> r = engine.Explain(tpcd_queries::kQuery3);
    if (!r.ok()) {
      std::fprintf(stderr, "Q3 plan failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (i == iters - 1) last = std::move(r.value());
  }
  auto end = std::chrono::steady_clock::now();
  double total_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  double avg_ms = total_ms / iters;

  double hit_rate = 0.0;
  int64_t lookups = last.reduce_cache_hits + last.reduce_cache_misses;
  if (lookups > 0) {
    hit_rate = static_cast<double>(last.reduce_cache_hits) / lookups;
  }

  std::printf("--- planning time on Q3 (plan-only, %d iterations) ---\n",
              iters);
  std::printf("avg plan time:        %.4f ms\n", avg_ms);
  std::printf("plans generated:      %lld\n",
              static_cast<long long>(last.plans_generated));
  std::printf("plans retained:       %lld\n",
              static_cast<long long>(last.plans_retained));
  std::printf("reduce-cache hits:    %lld\n",
              static_cast<long long>(last.reduce_cache_hits));
  std::printf("reduce-cache misses:  %lld\n",
              static_cast<long long>(last.reduce_cache_misses));
  std::printf("reduce-cache hit rate: %.1f%%\n", hit_rate * 100.0);

  const int region_iters = runs * 4;
  std::vector<RegionPlanTime> region = {{"db2cs", false}, {"hash", true}};
  if (!TimeRegionPlanning(db, region_iters, &region)) return 1;
  std::printf("--- planning time on region revenue (median of %d) ---\n",
              region_iters);
  std::printf("%-8s %12s %12s %8s %10s %10s\n", "profile", "order on",
              "order off", "ratio", "plans on", "plans off");
  for (const RegionPlanTime& p : region) {
    std::printf("%-8s %9.3f ms %9.3f ms %7.2fx %10lld %10lld\n", p.profile,
                p.on_ms, p.off_ms, p.on_ms / p.off_ms,
                static_cast<long long>(p.plans_on),
                static_cast<long long>(p.plans_off));
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"query\": \"tpcd_q3\",\n"
                 "  \"iterations\": %d,\n"
                 "  \"avg_plan_ms\": %.6f,\n"
                 "  \"plans_generated\": %lld,\n"
                 "  \"plans_retained\": %lld,\n"
                 "  \"reduce_cache_hits\": %lld,\n"
                 "  \"reduce_cache_misses\": %lld,\n"
                 "  \"reduce_cache_hit_rate\": %.6f,\n"
                 "  \"region\": {\n"
                 "    \"iterations\": %d,\n",
                 iters, avg_ms, static_cast<long long>(last.plans_generated),
                 static_cast<long long>(last.plans_retained),
                 static_cast<long long>(last.reduce_cache_hits),
                 static_cast<long long>(last.reduce_cache_misses), hit_rate,
                 region_iters);
    for (size_t i = 0; i < region.size(); ++i) {
      const RegionPlanTime& p = region[i];
      std::fprintf(f,
                   "    \"%s\": {\"order_on_ms\": %.6f, "
                   "\"order_off_ms\": %.6f, \"on_off_ratio\": %.4f, "
                   "\"plans_generated_on\": %lld, "
                   "\"plans_generated_off\": %lld}%s\n",
                   p.profile, p.on_ms, p.off_ms, p.on_ms / p.off_ms,
                   static_cast<long long>(p.plans_on),
                   static_cast<long long>(p.plans_off),
                   i + 1 < region.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// Batch-size sweep: exec wall time per batch size, speedup vs batch_rows=1
// (single-row batches through the same, only, execution path). Iterations
// are paired (every size measured back-to-back inside each iteration,
// medians compared across iterations) so CPU-frequency drift cancels
// instead of accumulating into one size's column. Every size's rows must
// be identical to batch_rows=1's.
int BatchSweep(Database* db, int runs, const std::string& json_path) {
  constexpr int64_t kSizes[] = {1, 256, 1024, 4096};  // [0] = the reference
  constexpr int kNumSizes = 4;
  constexpr int kIterations = 7;

  std::vector<Row> baseline_rows;
  bool rows_identical = true;
  std::vector<double> per_size_medians[kNumSizes];
  // Warm-up: first touch of the tables and the allocator.
  {
    OptimizerConfig cfg;
    cfg.enable_hash_join = false;
    cfg.enable_hash_grouping = false;
    QueryEngine engine(db, cfg);
    if (!engine.Run(tpcd_queries::kQuery3).ok()) return 1;
  }
  for (int it = 0; it < kIterations; ++it) {
    for (int m = 0; m < kNumSizes; ++m) {
      OptimizerConfig cfg;
      cfg.enable_order_optimization = true;
      cfg.enable_hash_join = false;
      cfg.enable_hash_grouping = false;
      cfg.batch_rows = kSizes[m];
      QueryEngine engine(db, cfg);
      std::vector<double> samples;
      for (int i = 0; i < runs; ++i) {
        Result<QueryResult> r = engine.Run(tpcd_queries::kQuery3);
        if (!r.ok()) {
          std::fprintf(stderr, "Q3 failed at batch_rows=%lld: %s\n",
                       static_cast<long long>(kSizes[m]),
                       r.status().ToString().c_str());
          return 1;
        }
        samples.push_back(r.value().elapsed_seconds);
        if (i == 0) {
          if (it == 0 && m == 0) {
            baseline_rows = std::move(r.value().rows);
          } else if (r.value().rows != baseline_rows) {
            rows_identical = false;
          }
        }
      }
      per_size_medians[m].push_back(Median(samples));
    }
  }

  double exec_us[kNumSizes];
  for (int m = 0; m < kNumSizes; ++m) {
    exec_us[m] = Median(per_size_medians[m]) * 1e6;
  }

  std::printf("--- batch-size sweep on Q3 (exec wall, %d runs x%d paired "
              "iterations) ---\n",
              runs, kIterations);
  std::printf("%-12s %14s %22s\n", "batch_rows", "exec (us)",
              "speedup vs batch 1");
  for (int s = 0; s < kNumSizes; ++s) {
    std::printf("%-12lld %14.1f %21.2fx\n",
                static_cast<long long>(kSizes[s]), exec_us[s],
                exec_us[0] / exec_us[s]);
  }
  std::printf("\nrow streams identical across all batch sizes: %s\n",
              rows_identical ? "YES" : "NO  <-- FAIL");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"query\": \"tpcd_q3\",\n"
                 "  \"runs\": %d,\n"
                 "  \"iterations\": %d,\n"
                 "  \"rows_identical\": %s,\n"
                 "  \"sizes\": [\n",
                 runs, kIterations, rows_identical ? "true" : "false");
    for (int s = 0; s < kNumSizes; ++s) {
      std::fprintf(f,
                   "    {\"batch_rows\": %lld, \"exec_us\": %.1f, "
                   "\"speedup_vs_batch1\": %.4f}%s\n",
                   static_cast<long long>(kSizes[s]), exec_us[s],
                   exec_us[0] / exec_us[s], s + 1 < kNumSizes ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return rows_identical ? 0 : 1;
}

// Parallel-worker sweep: Q3 (DB2/CS profile) and the pricing summary (hash
// profile, whose group-by aggregates in the workers) at 1/2/4 exchange
// workers. Correctness is a hard gate — every parallel row stream must be
// identical to serial. The speedup is measured on the wall clock (median
// exec time per mode, serial over parallel). Beside it the sweep reports
// the *modeled critical-path speedup* from per-thread CPU time: a run's
// critical path is the main thread's execution CPU plus the busiest
// worker's CPU (metrics.worker_busy_ns_max), i.e. the makespan with at
// least `workers` idle cores. The serial run's critical path is simply its
// thread CPU. Where the two disagree, the gap is scheduling: cores busy
// elsewhere, or workers waiting on each other.
struct SweepQuery {
  const char* name;
  const char* sql;
  bool hash;  ///< hash profile; else DB2/CS
};

constexpr int kSweepWorkers[] = {1, 2, 4};
constexpr int kSweepModes = 3;

/// Worker counts whose scan self time per scanned row the sweep reports.
constexpr int kScanCostWorkers[] = {1, 4};

struct SweepResult {
  bool rows_identical = true;
  int64_t exchange_batches[kSweepModes] = {0, 0, 0};
  double wall_us[kSweepModes] = {0, 0, 0};
  double critical_us[kSweepModes] = {0, 0, 0};
  /// Self time of the base-table scans per row they scanned, in ns, summed
  /// over every worker; indexed like kScanCostWorkers.
  double scan_ns_per_row[2] = {0, 0};
};

// Scan self time per scanned row in one analyzed run of `sql`: the table
// and index scans are leaves, so their inclusive time is their self time,
// and an exchange's workers' stats are already summed into one operator.
bool ScanNsPerRow(Database* db, const OptimizerConfig& config,
                  const char* sql, double* out) {
  QueryEngine engine(db, config);
  Result<QueryResult> r = engine.RunAnalyzed(sql);
  if (!r.ok()) return false;
  int64_t ns = 0;
  int64_t rows = 0;
  for (const OperatorProfile& p : r.value().op_profile) {
    if (p.node->kind != OpKind::kTableScan &&
        p.node->kind != OpKind::kIndexScan) {
      continue;
    }
    ns += p.stats.total_ns();
    rows += p.stats.rows_scanned;
  }
  *out = rows > 0 ? static_cast<double>(ns) / static_cast<double>(rows) : 0;
  return true;
}

bool SweepOne(Database* db, const SweepQuery& q, int runs, int iterations,
              SweepResult* out) {
  auto thread_cpu_ns = [] {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  };
  auto config = [&q](int workers) {
    OptimizerConfig cfg;
    cfg.enable_order_optimization = true;
    cfg.enable_hash_join = q.hash;
    cfg.enable_hash_grouping = q.hash;
    cfg.parallel_workers = workers;
    return cfg;
  };

  std::vector<Row> serial_rows;
  std::vector<double> wall_medians[kSweepModes];
  std::vector<double> critical_medians[kSweepModes];
  // Warm-up: first touch of the tables and the allocator.
  {
    QueryEngine engine(db, config(1));
    if (!engine.Run(q.sql).ok()) return false;
  }
  for (int it = 0; it < iterations; ++it) {
    for (int m = 0; m < kSweepModes; ++m) {
      QueryEngine engine(db, config(kSweepWorkers[m]));
      std::vector<double> walls, criticals;
      for (int i = 0; i < runs; ++i) {
        int64_t cpu_before = thread_cpu_ns();
        Result<QueryResult> r = engine.Run(q.sql);
        int64_t main_cpu = thread_cpu_ns() - cpu_before;
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed at %d workers: %s\n", q.name,
                       kSweepWorkers[m], r.status().ToString().c_str());
          return false;
        }
        // Execution critical path: main-thread CPU minus the (serial,
        // identical-across-modes) planning phase, plus the busiest
        // worker thread.
        double plan_ns = r.value().plan_seconds * 1e9;
        double critical = static_cast<double>(main_cpu) - plan_ns +
                          static_cast<double>(
                              r.value().metrics.worker_busy_ns_max);
        walls.push_back(r.value().elapsed_seconds);
        criticals.push_back(critical / 1e9);
        if (it == 0 && i == 0) {
          out->exchange_batches[m] = r.value().metrics.exchange_batches;
          if (m == 0) {
            serial_rows = std::move(r.value().rows);
          } else if (r.value().rows != serial_rows) {
            out->rows_identical = false;
          }
        }
      }
      wall_medians[m].push_back(Median(walls));
      critical_medians[m].push_back(Median(criticals));
    }
  }
  for (int m = 0; m < kSweepModes; ++m) {
    out->wall_us[m] = Median(wall_medians[m]) * 1e6;
    out->critical_us[m] = Median(critical_medians[m]) * 1e6;
  }
  for (size_t i = 0; i < std::size(kScanCostWorkers); ++i) {
    if (!ScanNsPerRow(db, config(kScanCostWorkers[i]), q.sql,
                      &out->scan_ns_per_row[i])) {
      return false;
    }
  }

  std::printf("--- parallel-worker sweep on %s, %s profile (%d runs x%d "
              "paired iterations) ---\n",
              q.name, q.hash ? "hash" : "DB2/CS", runs, iterations);
  std::printf("%-8s %12s %13s %18s %16s %10s\n", "workers", "wall (us)",
              "wall speedup", "critical-path (us)", "modeled speedup",
              "exch bat");
  for (int m = 0; m < kSweepModes; ++m) {
    std::printf("%-8d %12.1f %12.2fx %18.1f %15.2fx %10lld\n",
                kSweepWorkers[m], out->wall_us[m],
                out->wall_us[0] / out->wall_us[m], out->critical_us[m],
                out->critical_us[0] / out->critical_us[m],
                static_cast<long long>(out->exchange_batches[m]));
  }
  std::printf("scan self time per scanned row: %.1f ns at %d worker(s), "
              "%.1f ns at %d (%.2fx)\n",
              out->scan_ns_per_row[0], kScanCostWorkers[0],
              out->scan_ns_per_row[1], kScanCostWorkers[1],
              out->scan_ns_per_row[1] / out->scan_ns_per_row[0]);
  std::printf("row streams identical to serial: %s\n\n",
              out->rows_identical ? "YES" : "NO  <-- FAIL");
  return true;
}

int ParallelSweep(Database* db, int runs, const std::string& json_path) {
  constexpr int kIterations = 7;
  const SweepQuery queries[] = {
      {"tpcd_q3", tpcd_queries::kQuery3, /*hash=*/false},
      {"tpcd_q3_hash", tpcd_queries::kQuery3, /*hash=*/true},
      {"tpcd_pricing", tpcd_queries::kPricingSummary, /*hash=*/true},
  };
  constexpr int kQueries = static_cast<int>(std::size(queries));
  SweepResult results[kQueries];
  bool rows_identical = true;
  for (int i = 0; i < kQueries; ++i) {
    if (!SweepOne(db, queries[i], runs, kIterations, &results[i])) return 1;
    rows_identical = rows_identical && results[i].rows_identical;
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"runs\": %d,\n"
                 "  \"iterations\": %d,\n"
                 "  \"rows_identical\": %s,\n"
                 "  \"queries\": [\n",
                 runs, kIterations, rows_identical ? "true" : "false");
    for (int i = 0; i < kQueries; ++i) {
      const SweepResult& r = results[i];
      std::fprintf(f,
                   "    {\"query\": \"%s\", \"profile\": \"%s\", "
                   "\"rows_identical\": %s, \"scan_ns_per_row\": "
                   "{\"%d\": %.1f, \"%d\": %.1f}, \"workers\": [\n",
                   queries[i].name, queries[i].hash ? "hash" : "db2",
                   r.rows_identical ? "true" : "false", kScanCostWorkers[0],
                   r.scan_ns_per_row[0], kScanCostWorkers[1],
                   r.scan_ns_per_row[1]);
      for (int m = 0; m < kSweepModes; ++m) {
        std::fprintf(f,
                     "      {\"workers\": %d, \"wall_us\": %.1f, "
                     "\"wall_speedup\": %.4f, \"critical_path_us\": %.1f, "
                     "\"modeled_speedup\": %.4f, \"exchange_batches\": "
                     "%lld}%s\n",
                     kSweepWorkers[m], r.wall_us[m],
                     r.wall_us[0] / r.wall_us[m], r.critical_us[m],
                     r.critical_us[0] / r.critical_us[m],
                     static_cast<long long>(r.exchange_batches[m]),
                     m + 1 < kSweepModes ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", i + 1 < kQueries ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return rows_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.02;
  int runs = 5;
  int64_t sort_budget = 0;
  bool guard_overhead = false;
  bool spill_check = false;
  bool explain = false;
  bool trace_overhead = false;
  bool plan_time = false;
  bool batch_sweep = false;
  bool parallel_sweep = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sf=", 5) == 0) sf = std::atof(argv[i] + 5);
    if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      runs = std::atoi(argv[i] + 7);
    }
    if (std::strncmp(argv[i], "--sort-budget=", 14) == 0) {
      sort_budget = std::atoll(argv[i] + 14);
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strcmp(argv[i], "--guard-overhead") == 0) guard_overhead = true;
    if (std::strcmp(argv[i], "--spill-check") == 0) spill_check = true;
    if (std::strcmp(argv[i], "--explain") == 0) explain = true;
    if (std::strcmp(argv[i], "--trace-overhead") == 0) trace_overhead = true;
    if (std::strcmp(argv[i], "--plan-time") == 0) plan_time = true;
    if (std::strcmp(argv[i], "--batch-sweep") == 0) batch_sweep = true;
    if (std::strcmp(argv[i], "--parallel-sweep") == 0) parallel_sweep = true;
  }

  std::printf("=== Table 1: Elapsed Time for Query 3 (TPC-D, SF=%.3f, "
              "%d runs) ===\n\n",
              sf, runs);
  Database db;
  TpcdConfig config;
  config.scale_factor = sf;
  Status st = LoadTpcd(&db, config);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("database: customer=%lld orders=%lld lineitem=%lld rows\n\n",
              static_cast<long long>(db.GetTable("customer")->row_count()),
              static_cast<long long>(db.GetTable("orders")->row_count()),
              static_cast<long long>(db.GetTable("lineitem")->row_count()));

  if (guard_overhead) return GuardOverhead(&db, runs);
  if (spill_check) return SpillCheck(&db, runs);
  if (explain) return ExplainQ3(&db);
  if (trace_overhead) return TraceOverhead(&db, runs);
  if (plan_time) return PlanTime(&db, runs, json_path);
  if (batch_sweep) return BatchSweep(&db, runs, json_path);
  if (parallel_sweep) return ParallelSweep(&db, runs, json_path);

  // DB2/CS engine profile: the paper's configuration.
  ModeResult prod =
      RunMode(&db, /*order_opt=*/true, /*hash=*/false, runs, sort_budget);
  ModeResult disabled =
      RunMode(&db, /*order_opt=*/false, /*hash=*/false, runs, sort_budget);

  std::printf("--- DB2/CS engine profile (no hash operators), simulated "
              "1996 hardware ---\n");
  std::printf("%-22s %14s %14s\n", "", "Production DB2", "Disabled DB2");
  std::printf("%-22s %13.2fs %13.2fs\n", "elapsed (simulated)",
              prod.sim_seconds, disabled.sim_seconds);
  std::printf("%-22s %14lld %14lld\n", "sorts",
              static_cast<long long>(prod.metrics.sorts_performed),
              static_cast<long long>(disabled.metrics.sorts_performed));
  std::printf("%-22s %14lld %14lld\n", "rows sorted",
              static_cast<long long>(prod.metrics.rows_sorted),
              static_cast<long long>(disabled.metrics.rows_sorted));
  std::printf("%-22s %14lld %14lld\n", "rows scanned",
              static_cast<long long>(prod.metrics.rows_scanned),
              static_cast<long long>(disabled.metrics.rows_scanned));
  std::printf("%-22s %14lld %14lld\n", "seq pages",
              static_cast<long long>(prod.metrics.seq_pages),
              static_cast<long long>(disabled.metrics.seq_pages));
  std::printf("%-22s %14lld %14lld\n", "random pages",
              static_cast<long long>(prod.metrics.random_pages),
              static_cast<long long>(disabled.metrics.random_pages));
  if (sort_budget != 0) {
    std::printf("%-22s %14lld %14lld\n", "spilled runs",
                static_cast<long long>(prod.metrics.spill_runs),
                static_cast<long long>(disabled.metrics.spill_runs));
    std::printf("%-22s %14lld %14lld\n", "spilled bytes",
                static_cast<long long>(prod.metrics.spill_bytes),
                static_cast<long long>(disabled.metrics.spill_bytes));
  }
  double ratio = disabled.sim_seconds / prod.sim_seconds;
  std::printf("\nRatio (disabled / production): %.2f   [paper: 2.04]\n",
              ratio);
  std::printf("Shape check: production wins: %s\n\n",
              ratio > 1.0 ? "YES" : "NO  <-- UNEXPECTED");

  // Supplementary: modern engine profile with hash operators available.
  ModeResult prod_h = RunMode(&db, true, /*hash=*/true, runs, sort_budget);
  ModeResult dis_h = RunMode(&db, false, /*hash=*/true, runs, sort_budget);
  std::printf("--- supplementary: hash join/aggregation available ---\n");
  std::printf("production %.2fs vs disabled %.2fs  (ratio %.2f)\n\n",
              prod_h.sim_seconds, dis_h.sim_seconds,
              dis_h.sim_seconds / prod_h.sim_seconds);

  std::printf("--- production plan (Figure 7 shape) ---\n%s\n",
              prod.plan.c_str());
  std::printf("--- disabled plan (Figure 8 shape) ---\n%s\n",
              disabled.plan.c_str());
  return 0;
}
