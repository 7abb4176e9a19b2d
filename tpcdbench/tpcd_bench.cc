// TPC-D suite benchmark for ordopt: one workload per process.
//
//   tpcd_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --out-dir <dir> --spill-dir <dir>
//
// run.py builds this program and passes both directories. Each run loads
// the seeded TPC-D database kSetupRepeats times (setup_s is the median),
// computes a reference digest for every (template, literal set) the
// workload can draw with the paper's disabled baseline, warms up, then:
//
//  --trace 0  one timed phase of closed-loop clients through the public
//             entry points (QueryEngine::Run, QueryService::Submit + Wait)
//             with tracing off; prints the end-to-end metrics.
//  --trace 1  the same streams three times, a third of --seconds each:
//             untraced (the overhead baseline); traced through the entry
//             points (spans from QueryResult and QueryTicket timings,
//             service and plan-cache counter deltas); and a module pass
//             that calls parser, binder, rewrite, planner and executor in
//             turn (spans around each call, operator spans from
//             ExecutePlan's OperatorProfile output). Prints the per-layer
//             metrics and writes the spans as JSON lines.
//
// Times are scaled to a nominal host speed: every phase runs in epochs of
// about half a second, and a fixed calibration kernel (harness.h) runs on
// the idle engine between them, as it does around each set-up. The result
// file and the summary also give each scaled metric's wall-clock value.
//
// Every result is checked against its reference; a mismatch makes the run
// exit 1. The last stdout line is one JSON object with the keys correct,
// attempted, failed and metrics.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "harness.h"
#include "optimizer/planner.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/rewrite.h"
#include "service/query_service.h"
#include "tpcd/tpcd.h"

namespace tpcdbench {
namespace {

using Clock = std::chrono::steady_clock;
using ordopt::Database;
using ordopt::OptimizerConfig;
using ordopt::QueryEngine;
using ordopt::QueryResult;
using ordopt::QueryService;
using ordopt::Result;
using ordopt::Row;
using ordopt::StrFormat;

struct Workload {
  const char* name;
  double scale_factor;
  bool hash;             ///< enable_hash_join and enable_hash_grouping
  int parallel_workers;  ///< OptimizerConfig::parallel_workers
  bool service;          ///< one QueryService instead of one QueryEngine
  int clients;           ///< closed-loop clients, one session each
};

// BENCHMARK.json records why each workload exists.
constexpr Workload kWorkloads[] = {
    {"olap_hash_par4", 0.05, true, 4, false, 1},
    {"olap_sort_serial", 0.05, false, 1, false, 1},
    {"service_mixed", 0.002, true, 1, true, 4},
};
constexpr int kServiceWorkers = 4;
constexpr size_t kPlanCacheCapacity = 64;
constexpr int kSetupRepeats = 3;
constexpr int64_t kWarmupPerClient = 2 * kTemplates;
constexpr double kEpochSeconds = 0.5;
constexpr int kCalibrationReps = 3;

// The operator kinds reported as exec.op.<Kind>.* (OpKindName spelling).
const char* const kReportedOps[] = {
    "TableScan",      "IndexScan",    "Filter",       "Sort",
    "SortGroupBy",    "StreamGroupBy", "HashGroupBy", "StreamDistinct",
    "HashDistinct",   "HashJoin",     "MergeJoin",    "IndexNLJoin",
    "NestedLoopJoin", "TopN",         "Project",      "Exchange"};

double Since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Acc {
  double sum = 0.0;
  int64_t n = 0;
  double max = 0.0;
  void Add(double v) {
    sum += v;
    ++n;
    if (v > max) max = v;
  }
  double Mean() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

struct Span {
  int64_t query_id;
  int64_t id;
  int64_t parent;  ///< -1 for a root
  std::string name;
  double start_us;  ///< from the phase start; NaN when only a duration is known
  double dur_us;
  double self_us;
};

/// Everything one client (or, after merging, one epoch or phase) records.
struct ClientLog {
  std::vector<double> latency_ms[kTemplates];  ///< wall-clock
  std::vector<double> scaled_ms[kTemplates];   ///< scaled to the nominal host
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  Clock::time_point phase_start;
  Clock::time_point last_done;
  double load_s = 0.0;         ///< wall time of the epochs, calibration excluded
  double scaled_load_s = 0.0;  ///< the same, scaled to the nominal host
  std::vector<double> speed;   ///< SpeedFactor of each epoch
  // Traced phases only.
  bool traced = false;
  std::vector<Span> spans;
  std::map<std::string, Acc> acc;
  std::vector<double> queue_wait_us;

  int64_t completed() const {
    int64_t n = 0;
    for (const auto& v : latency_ms) n += static_cast<int64_t>(v.size());
    return n;
  }
  double qps() const {
    return scaled_load_s > 0 ? static_cast<double>(completed()) / scaled_load_s
                             : 0.0;
  }
  double raw_qps() const {
    return load_s > 0 ? static_cast<double>(completed()) / load_s : 0.0;
  }

  /// Appends a span and returns its id.
  int64_t AddSpan(int64_t query_id, int64_t parent, std::string name,
                  double start_us, double dur_us, double self_us) {
    static std::atomic<int64_t> next_id{1};
    int64_t id = next_id.fetch_add(1, std::memory_order_relaxed);
    spans.push_back(
        Span{query_id, id, parent, std::move(name), start_us, dur_us, self_us});
    return id;
  }

  /// Scales this epoch's wall times by `factor` (SpeedFactor) and counts
  /// `wall_s` as its load time.
  void ScaleEpoch(double wall_s, double factor) {
    for (int t = 0; t < kTemplates; ++t) {
      scaled_ms[t].clear();
      for (double ms : latency_ms[t]) scaled_ms[t].push_back(ms * factor);
    }
    load_s = wall_s;
    scaled_load_s = wall_s * factor;
    speed.assign(1, factor);
  }

  void Merge(ClientLog&& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (int t = 0; t < kTemplates; ++t) {
      append(latency_ms[t], other.latency_ms[t]);
      append(scaled_ms[t], other.scaled_ms[t]);
    }
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    if (other.last_done > last_done) last_done = other.last_done;
    load_s += other.load_s;
    scaled_load_s += other.scaled_load_s;
    append(speed, other.speed);
    for (Span& s : other.spans) spans.push_back(std::move(s));
    for (const auto& [name, a] : other.acc) {
      Acc& mine = acc[name];
      mine.sum += a.sum;
      mine.n += a.n;
      if (a.max > mine.max) mine.max = a.max;
    }
    append(queue_wait_us, other.queue_wait_us);
  }
};

struct References {
  Digest digest[kTemplates][kLiteralSets];
};

using Executor = std::function<Result<std::vector<Row>>(
    int client, const std::string& sql, ClientLog* log)>;

/// Runs the workload's closed-loop clients until `seconds` pass or each has
/// issued `max_per_client` requests, in epochs of about kEpochSeconds. The
/// clients stop between epochs, and the calibration kernel runs on an idle
/// engine; each epoch's times are scaled by the SpeedFactor of the
/// calibrations around it. Round-robin clients stop only at the end of a
/// round, so every template keeps its share of each epoch.
ClientLog RunPhase(const Workload& w, uint64_t seed, double seconds,
                   int64_t max_per_client, bool traced, const Executor& exec,
                   const References& refs,
                   const std::vector<std::string>& sql) {
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, seconds);
  const size_t clients = static_cast<size_t>(w.clients);
  std::vector<RequestStream> streams;
  for (int c = 0; c < w.clients; ++c) streams.emplace_back(w.service, seed, c);
  std::vector<int64_t> issued(clients, 0);

  ClientLog all;
  all.traced = traced;
  all.phase_start = start;
  all.last_done = start;
  double calibration = CalibrationSeconds(kCalibrationReps);
  for (;;) {
    const Clock::time_point epoch_start = Clock::now();
    const Clock::time_point epoch_end =
        std::min(deadline, after(epoch_start, kEpochSeconds));
    std::vector<ClientLog> logs(clients);
    auto client_main = [&](int c) {
      ClientLog& log = logs[static_cast<size_t>(c)];
      int64_t& n = issued[static_cast<size_t>(c)];
      log.traced = traced;
      log.phase_start = start;
      log.last_done = epoch_start;
      for (;; ++n) {
        if ((w.service || n % kTemplates == 0) &&
            (n >= max_per_client || Clock::now() >= epoch_end)) {
          break;
        }
        Request q = streams[static_cast<size_t>(c)].Next();
        const std::string& text =
            sql[static_cast<size_t>(q.tmpl * kLiteralSets + q.literal)];
        Clock::time_point t0 = Clock::now();
        Result<std::vector<Row>> rows = exec(c, text, &log);
        Clock::time_point t1 = Clock::now();
        ++log.attempted;
        if (!rows.ok()) {
          if (log.failed++ == 0) {
            std::fprintf(stderr, "tpcd_bench: %s failed: %s\n",
                         TemplateMetric(q.tmpl),
                         rows.status().ToString().c_str());
          }
          continue;
        }
        log.last_done = t1;
        log.latency_ms[q.tmpl].push_back(Since(t0, t1) * 1e3);
        if (!(DigestRows(rows.value()) == refs.digest[q.tmpl][q.literal]) ||
            !FollowsOrderBy(rows.value(), TemplateOrderBy(q.tmpl))) {
          if (log.mismatches++ == 0) {
            std::fprintf(stderr,
                         "tpcd_bench: %s literal set %d differs from the "
                         "reference\n",
                         TemplateMetric(q.tmpl), q.literal);
          }
        }
      }
    };
    if (clients == 1) {
      client_main(0);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < w.clients; ++c) threads.emplace_back(client_main, c);
      for (std::thread& t : threads) t.join();
    }
    ClientLog epoch = std::move(logs[0]);
    for (size_t i = 1; i < logs.size(); ++i) epoch.Merge(std::move(logs[i]));
    const double wall_s = Since(epoch_start, epoch.last_done);
    const double next = CalibrationSeconds(kCalibrationReps);
    epoch.ScaleEpoch(wall_s, SpeedFactor(calibration, next));
    calibration = next;
    all.Merge(std::move(epoch));
    bool quota_left = false;
    for (int64_t n : issued) quota_left = quota_left || n < max_per_client;
    if (!quota_left || Clock::now() >= deadline) break;
  }
  return all;
}

/// Spans of one request through a public entry point. The root covers the
/// client's call; its children come from the ticket's queue time and the
/// result's plan and execution times. What they leave uncovered (plan and
/// QGM text rendering, the plan-cache lookup including stampede waits,
/// result hand-off) is the root's self time, engine.unattributed_us.
/// `queue_s` < 0 means no service queue.
void RecordFacade(ClientLog* log, int64_t query_id, Clock::time_point t0,
                  Clock::time_point t1, double queue_s,
                  const QueryResult& result) {
  const double latency_us = Since(t0, t1) * 1e6;
  const size_t root_index = log->spans.size();
  const int64_t root = log->AddSpan(query_id, -1, "query",
                                    Since(log->phase_start, t0) * 1e6,
                                    latency_us, 0.0);
  double covered_us = 0.0;
  auto child = [&](const char* name, double us) {
    log->AddSpan(query_id, root, name, NAN, us, us);
    log->acc[std::string(name) + "_us"].Add(us);
    covered_us += us;
  };
  if (queue_s >= 0) {
    child("service.queue_wait", queue_s * 1e6);
    log->queue_wait_us.push_back(queue_s * 1e6);
  }
  if (!result.planned_from_cache) {
    child("engine.plan", result.plan_seconds * 1e6);
  }
  child("engine.exec", result.elapsed_seconds * 1e6);
  const double self_us = std::max(0.0, latency_us - covered_us);
  log->spans[root_index].self_us = self_us;
  log->acc["engine.unattributed_us"].Add(self_us);
}

/// The module pass: one request through each layer's public function in
/// turn, with a span around every call and operator spans below
/// exec.execute.
Result<std::vector<Row>> RunModules(const Database& db,
                                    const OptimizerConfig& config,
                                    const ordopt::SpillConfig& spill,
                                    const std::string& sql, ClientLog* log) {
  static std::atomic<int64_t> next_query_id{1};
  const int64_t qid = next_query_id.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point t0 = Clock::now();
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<ordopt::SelectStmt> stmt,
                          ordopt::ParseSelect(sql));
  const Clock::time_point t1 = Clock::now();
  ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<ordopt::Query> query,
                          ordopt::BindQuery(*stmt, db));
  const Clock::time_point t2 = Clock::now();
  ordopt::MergeDerivedTables(query.get());
  const Clock::time_point t3 = Clock::now();
  ordopt::Planner planner(*query, config);
  ORDOPT_ASSIGN_OR_RETURN(ordopt::PlanRef plan, planner.BuildPlan());
  const Clock::time_point t4 = Clock::now();
  ordopt::RuntimeMetrics m;
  std::vector<ordopt::OperatorProfile> profile;
  Result<std::vector<Row>> rows = ordopt::ExecutePlan(
      plan, &m, /*guard=*/nullptr, &spill, &profile, /*verify_orders=*/false,
      config.batch_rows, /*row_shim=*/false, config.parallel_workers);
  const Clock::time_point t5 = Clock::now();
  if (!rows.ok()) return rows;

  auto us = [&](Clock::time_point a, Clock::time_point b) {
    return Since(a, b) * 1e6;
  };
  const size_t root_index = log->spans.size();
  const int64_t root = log->AddSpan(qid, -1, "query", us(log->phase_start, t0),
                                    us(t0, t5), 0.0);
  double covered_us = 0.0;
  int64_t execute = -1;
  const std::pair<const char*, std::pair<Clock::time_point, Clock::time_point>>
      phases[] = {{"parser.parse", {t0, t1}},
                  {"qgm.bind", {t1, t2}},
                  {"qgm.rewrite", {t2, t3}},
                  {"optimizer.optimize", {t3, t4}},
                  {"exec.execute", {t4, t5}}};
  for (const auto& [name, span] : phases) {
    double dur = us(span.first, span.second);
    int64_t id = log->AddSpan(qid, root, name, us(log->phase_start, span.first),
                              dur, dur);
    if (std::strcmp(name, "exec.execute") == 0) execute = id;
    log->acc[std::string(name) + "_us"].Add(dur);
    covered_us += dur;
  }
  log->spans[root_index].self_us = std::max(0.0, us(t0, t5) - covered_us);

  // Operator spans. Only durations are known, so they carry no start.
  const size_t execute_index = log->spans.size() - 1;
  std::vector<OperatorSelf> ops = OperatorSelfTimes(*plan, profile);
  std::vector<int64_t> ids(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const OperatorSelf& op = ops[i];
    const std::string kind = ordopt::OpKindName(op.kind);
    int64_t parent =
        op.parent < 0 ? execute : ids[static_cast<size_t>(op.parent)];
    ids[i] = log->AddSpan(qid, parent, "exec.op." + kind, NAN,
                          static_cast<double>(op.total_ns) / 1e3,
                          static_cast<double>(op.self_ns) / 1e3);
    log->acc["exec.op." + kind + ".self_us"].Add(
        static_cast<double>(op.self_ns) / 1e3);
    log->acc["exec.op." + kind + ".rows_out"].Add(
        static_cast<double>(op.rows_out));
  }
  if (!ops.empty()) {
    Span& ex = log->spans[execute_index];
    ex.self_us = std::max(
        0.0, ex.dur_us - static_cast<double>(ops[0].total_ns) / 1e3);
  }

  auto add = [&](const char* name, double v) { log->acc[name].Add(v); };
  add("optimizer.plans_generated", planner.plans_generated());
  add("optimizer.plans_retained", planner.plans_retained());
  add("orderopt.reduce_cache_hits", planner.reduce_cache_hits());
  add("orderopt.reduce_cache_misses", planner.reduce_cache_misses());
  add("exec.rows_scanned", m.rows_scanned);
  add("exec.index_probes", m.index_probes);
  add("exec.comparisons", m.comparisons);
  add("exec.rows_sorted", m.rows_sorted);
  add("exec.rows_buffered_peak", m.rows_buffered_peak);
  add("exec.bytes_buffered_peak", m.bytes_buffered_peak);
  add("spill.runs", m.spill_runs);
  add("spill.rows", m.spill_rows);
  add("spill.bytes", m.spill_bytes);
  add("spill.retries", m.spill_retries);
  add("parallel.exchange_batches", m.exchange_batches);
  add("parallel.worker_busy_max_ms", m.worker_busy_ns_max / 1e6);
  add("parallel.worker_busy_total_ms", m.worker_busy_ns_total / 1e6);
  return rows;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  int64_t samples;
  double percentile = 0.0;  ///< the percentile a tail metric reports
  double raw = NAN;         ///< the wall-clock value of a scaled metric
};

/// A tail latency under the ten-samples-beyond rule; the maximum when the
/// sample is too small for any percentile.
Metric TailMetric(const char* name, const char* unit,
                  const std::vector<double>& values,
                  const std::vector<double>& raw = {}) {
  double pct = TailPercentile(values.size());
  if (pct == 0.0) pct = 100.0;
  return Metric{name,
                Quantile(values, pct / 100.0),
                unit,
                static_cast<int64_t>(values.size()),
                pct,
                raw.empty() ? NAN : Quantile(raw, pct / 100.0)};
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string spill_dir;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out-dir") {
      o->out_dir = v;
    } else if (flag == "--spill-dir") {
      o->spill_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

// Database first: destroyed last, after the engine and service using it.
struct Target {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<int64_t> sessions;

  void Reset() {
    service.reset();
    engine.reset();
    sessions.clear();
    db.reset();
  }
};

std::string SpanJson(const Span& s, const char* phase) {
  std::string start = std::isnan(s.start_us) ? "null" : Num(s.start_us);
  std::string parent = s.parent < 0 ? "null" : std::to_string(s.parent);
  return StrFormat(
      "{\"phase\":\"%s\",\"query_id\":%lld,\"id\":%lld,\"parent\":%s,"
      "\"name\":\"%s\",\"start_us\":%s,\"dur_us\":%s,\"self_us\":%s}\n",
      phase, static_cast<long long>(s.query_id), static_cast<long long>(s.id),
      parent.c_str(), s.name.c_str(), start.c_str(), Num(s.dur_us).c_str(),
      Num(s.self_us).c_str());
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "tpcd_bench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  const Workload* w = nullptr;
  if (ParseArgs(argc, argv, &opt)) {
    for (const Workload& cand : kWorkloads) {
      if (opt.workload == cand.name) w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: tpcd_bench --workload <olap_hash_par4|"
                 "olap_sort_serial|service_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--spill-dir <dir>]\n");
    return 2;
  }

  OptimizerConfig config;
  config.enable_hash_join = config.enable_hash_grouping = w->hash;
  config.parallel_workers = w->parallel_workers;
  config.spill_temp_dir = opt.spill_dir;
  // The paper's disabled baseline computes every reference result.
  OptimizerConfig baseline;
  baseline.enable_order_optimization = false;
  baseline.enable_hash_join = baseline.enable_hash_grouping = false;
  baseline.spill_temp_dir = opt.spill_dir;

  ordopt::TpcdConfig tpcd;
  tpcd.scale_factor = w->scale_factor;
  tpcd.seed = opt.seed;

  Target target;
  // Set-up times are scaled like the phases' times, by the calibrations
  // around each repeat.
  std::vector<double> setup_s, load_s, raw_setup_s;
  double calibration = CalibrationSeconds(kCalibrationReps);
  for (int i = 0; i < kSetupRepeats; ++i) {
    target.Reset();
    const Clock::time_point t0 = Clock::now();
    target.db = std::make_unique<Database>();
    ordopt::Status st = ordopt::LoadTpcd(target.db.get(), tpcd);
    if (!st.ok()) {
      std::fprintf(stderr, "tpcd_bench: load: %s\n", st.ToString().c_str());
      return 1;
    }
    const Clock::time_point t1 = Clock::now();
    if (w->service) {
      ordopt::ServiceConfig sc;
      sc.workers = kServiceWorkers;
      sc.plan_cache_capacity = kPlanCacheCapacity;
      sc.engine_config = config;
      target.service = std::make_unique<QueryService>(target.db.get(), sc);
      for (int c = 0; c < w->clients; ++c) {
        target.sessions.push_back(target.service->OpenSession());
      }
    } else {
      target.engine = std::make_unique<QueryEngine>(target.db.get(), config);
    }
    const Clock::time_point t2 = Clock::now();
    const double next = CalibrationSeconds(kCalibrationReps);
    const double factor = SpeedFactor(calibration, next);
    calibration = next;
    load_s.push_back(Since(t0, t1) * factor);
    setup_s.push_back(Since(t0, t2) * factor);
    raw_setup_s.push_back(Since(t0, t2));
  }

  std::vector<std::string> sql(kTemplates * kLiteralSets);
  References refs;
  const int literal_sets = w->service ? kLiteralSets : 1;
  {
    QueryEngine reference(target.db.get(), baseline);
    for (int t = 0; t < kTemplates; ++t) {
      for (int l = 0; l < literal_sets; ++l) {
        std::string& text = sql[static_cast<size_t>(t * kLiteralSets + l)];
        text = RequestSql(t, l);
        Result<QueryResult> r = reference.Run(text);
        if (!r.ok() || !FollowsOrderBy(r.value().rows, TemplateOrderBy(t))) {
          std::fprintf(stderr, "tpcd_bench: reference for %s set %d: %s\n",
                       TemplateMetric(t), l,
                       r.ok() ? "rows out of order"
                              : r.status().ToString().c_str());
          return 1;
        }
        refs.digest[t][l] = DigestRows(r.value().rows);
      }
    }
  }

  Executor facade = [&target](int client, const std::string& text,
                              ClientLog* log) -> Result<std::vector<Row>> {
    const Clock::time_point t0 = Clock::now();
    if (target.service != nullptr) {
      ORDOPT_ASSIGN_OR_RETURN(
          ordopt::TicketRef ticket,
          target.service->Submit(target.sessions[static_cast<size_t>(client)],
                                 text));
      const Result<QueryResult>& r = ticket->Wait();
      if (!r.ok()) return r.status();
      if (log->traced) {
        RecordFacade(log, ticket->id(), t0, Clock::now(),
                     ticket->queued_seconds(), r.value());
      }
      return r.value().rows;
    }
    Result<QueryResult> r = target.engine->Run(text);
    if (!r.ok()) return r.status();
    if (log->traced) {
      RecordFacade(log, r.value().query_id, t0, Clock::now(), -1.0, r.value());
    }
    return std::move(r.value().rows);
  };
  ordopt::SpillConfig spill;
  spill.sort_memory_rows = config.cost_params.sort_memory_rows;
  spill.temp_dir = config.spill_temp_dir;
  spill.retry = config.spill_retry;
  Executor modules = [&](int, const std::string& text, ClientLog* log) {
    return RunModules(*target.db, config, spill, text, log);
  };

  const int64_t unbounded = std::numeric_limits<int64_t>::max();
  ClientLog warmup = RunPhase(*w, opt.seed, 1e9, kWarmupPerClient,
                              /*traced=*/false, facade, refs, sql);
  int64_t attempted = 0, failed = 0, mismatches = warmup.mismatches;
  std::vector<Metric> metrics;
  std::vector<double> host_speed;  ///< SpeedFactor of each timed epoch
  std::string spans_path;

  if (!opt.trace) {
    ClientLog timed = RunPhase(*w, opt.seed, opt.seconds, unbounded,
                               /*traced=*/false, facade, refs, sql);
    attempted = timed.attempted;
    failed = timed.failed;
    mismatches += timed.mismatches;
    metrics.push_back({"setup_s", Median(setup_s), "s", kSetupRepeats, 0.0,
                       Median(raw_setup_s)});
    metrics.push_back({"qps", timed.qps(), "1/s", timed.completed(), 0.0,
                       timed.raw_qps()});
    std::vector<double> all, raw_all;
    for (int t = 0; t < kTemplates; ++t) {
      const std::vector<double>& v = timed.scaled_ms[t];
      const std::vector<double>& raw = timed.latency_ms[t];
      metrics.push_back({TemplateMetric(t), Median(v), "ms",
                         static_cast<int64_t>(v.size()), 0.0, Median(raw)});
      all.insert(all.end(), v.begin(), v.end());
      raw_all.insert(raw_all.end(), raw.begin(), raw.end());
    }
    metrics.push_back(TailMetric("p99_ms", "ms", all, raw_all));
    host_speed = timed.speed;
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", 1});
  } else {
    const double third = opt.seconds / 3.0;
    ClientLog untraced = RunPhase(*w, opt.seed, third, unbounded,
                                  /*traced=*/false, facade, refs, sql);
    ordopt::ServiceStats s0, s1;
    ordopt::PlanCacheStats c0, c1;
    if (target.service != nullptr) {
      s0 = target.service->stats();
      c0 = target.service->plan_cache_stats();
    }
    ClientLog traced = RunPhase(*w, opt.seed, third, unbounded,
                                /*traced=*/true, facade, refs, sql);
    if (target.service != nullptr) {
      s1 = target.service->stats();
      c1 = target.service->plan_cache_stats();
    }
    ClientLog mod = RunPhase(*w, opt.seed, third, unbounded, /*traced=*/true,
                             modules, refs, sql);
    for (const ClientLog* log : {&untraced, &traced, &mod}) {
      attempted += log->attempted;
      failed += log->failed;
      mismatches += log->mismatches;
      host_speed.insert(host_speed.end(), log->speed.begin(),
                        log->speed.end());
    }

    auto mean = [](const ClientLog& log, const std::string& name) {
      auto it = log.acc.find(name);
      return it == log.acc.end() ? 0.0 : it->second.Mean();
    };
    auto count = [](const ClientLog& log, const std::string& name) {
      auto it = log.acc.find(name);
      return it == log.acc.end() ? int64_t{0} : it->second.n;
    };
    auto ratio = [](double hits, double misses) {
      return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    const int64_t executed = count(mod, "exec.execute_us");
    auto per_query = [&](const std::string& name) {
      auto it = mod.acc.find(name);
      return it == mod.acc.end() || executed == 0
                 ? 0.0
                 : it->second.sum / static_cast<double>(executed);
    };
    auto peak = [&](const std::string& name) {
      auto it = mod.acc.find(name);
      return it == mod.acc.end() ? 0.0 : it->second.max;
    };
    auto from_mod = [&](const char* name, const char* unit) {
      metrics.push_back({name, mean(mod, name), unit, count(mod, name)});
    };
    auto delta = [&](const char* name, int64_t before, int64_t after) {
      metrics.push_back({name, static_cast<double>(after - before), "count",
                         traced.attempted});
    };

    metrics.push_back({"tpcd.load_s", Median(load_s), "s", kSetupRepeats});
    from_mod("parser.parse_us", "us");
    from_mod("qgm.bind_us", "us");
    from_mod("qgm.rewrite_us", "us");
    from_mod("optimizer.optimize_us", "us");
    from_mod("optimizer.plans_generated", "count");
    from_mod("optimizer.plans_retained", "count");
    from_mod("orderopt.reduce_cache_hits", "count");
    from_mod("orderopt.reduce_cache_misses", "count");
    metrics.push_back({"orderopt.reduce_cache_hit_ratio",
                       ratio(mod.acc["orderopt.reduce_cache_hits"].sum,
                             mod.acc["orderopt.reduce_cache_misses"].sum),
                       "ratio", count(mod, "orderopt.reduce_cache_hits")});
    delta("plan_cache.hits", c0.hits, c1.hits);
    delta("plan_cache.misses", c0.misses, c1.misses);
    metrics.push_back({"plan_cache.hit_ratio",
                       ratio(static_cast<double>(c1.hits - c0.hits),
                             static_cast<double>(c1.misses - c0.misses)),
                       "ratio", (c1.hits - c0.hits) + (c1.misses - c0.misses)});
    delta("plan_cache.literal_evictions", c0.literal_evictions,
          c1.literal_evictions);
    delta("plan_cache.stampede_waits", c0.stampede_waits, c1.stampede_waits);
    metrics.push_back({"service.queue_wait_us",
                       mean(traced, "service.queue_wait_us"), "us",
                       count(traced, "service.queue_wait_us")});
    metrics.push_back(
        TailMetric("service.queue_wait_p99_us", "us", traced.queue_wait_us));
    delta("service.shed",
          s0.shed_queue_full + s0.shed_session_cap + s0.shed_budget,
          s1.shed_queue_full + s1.shed_session_cap + s1.shed_budget);
    delta("service.failed", s0.failed, s1.failed);
    delta("service.retried", s0.retried, s1.retried);
    for (const char* name :
         {"engine.plan_us", "engine.exec_us", "engine.unattributed_us"}) {
      metrics.push_back({name, mean(traced, name), "us", count(traced, name)});
    }
    from_mod("exec.execute_us", "us");
    for (const char* name : {"exec.rows_scanned", "exec.index_probes",
                             "exec.comparisons", "exec.rows_sorted"}) {
      metrics.push_back({name, per_query(name), "count", executed});
    }
    metrics.push_back({"exec.rows_buffered_peak",
                       peak("exec.rows_buffered_peak"), "rows", executed});
    metrics.push_back({"exec.bytes_buffered_peak",
                       peak("exec.bytes_buffered_peak"), "bytes", executed});
    for (const char* kind : kReportedOps) {
      const std::string base = std::string("exec.op.") + kind;
      metrics.push_back({base + ".self_us", per_query(base + ".self_us"), "us",
                         count(mod, base + ".self_us")});
      metrics.push_back({base + ".rows_out", per_query(base + ".rows_out"),
                         "count", count(mod, base + ".rows_out")});
    }
    const std::pair<const char*, const char*> per_query_metrics[] = {
        {"spill.runs", "count"},
        {"spill.rows", "count"},
        {"spill.bytes", "bytes"},
        {"spill.retries", "count"},
        {"parallel.exchange_batches", "count"},
        {"parallel.worker_busy_max_ms", "ms"},
        {"parallel.worker_busy_total_ms", "ms"}};
    for (const auto& [name, unit] : per_query_metrics) {
      metrics.push_back({name, per_query(name), unit, executed});
    }
    metrics.push_back(
        {"trace.qps_untraced", untraced.qps(), "1/s", untraced.completed()});
    metrics.push_back(
        {"trace.qps_traced", traced.qps(), "1/s", traced.completed()});

    std::string spans;
    for (const Span& s : traced.spans) spans += SpanJson(s, "entry_points");
    for (const Span& s : mod.spans) spans += SpanJson(s, "modules");
    spans_path = StrFormat("%s/%s-seed%llu.spans.jsonl", opt.out_dir.c_str(),
                           w->name, static_cast<unsigned long long>(opt.seed));
    if (!WriteFile(spans_path, spans)) return 1;
  }
  target.Reset();

  const bool correct = mismatches == 0;
  const double error_ratio =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::printf("tpcd_bench: workload=%s seed=%llu sf=%g parallel_workers=%d "
              "service_workers=%d clients=%d seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(opt.seed),
              w->scale_factor, w->parallel_workers,
              w->service ? kServiceWorkers : 0, w->clients, opt.seconds,
              opt.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-6s samples=%lld", m.name.c_str(), m.value,
                m.unit, static_cast<long long>(m.samples));
    if (m.percentile > 0) std::printf(" percentile=%g", m.percentile);
    if (!std::isnan(m.raw)) std::printf(" wall_clock=%g", m.raw);
    std::printf("\n");
  }
  std::printf("  host_speed median=%g min=%g max=%g epochs=%zu\n",
              Median(host_speed), Quantile(host_speed, 0.0),
              Quantile(host_speed, 1.0), host_speed.size());
  std::printf(
      "  attempted=%lld failed=%lld error_ratio=%g mismatches=%lld%s%s\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              error_ratio, static_cast<long long>(mismatches),
              spans_path.empty() ? "" : " spans=", spans_path.c_str());

  std::string metrics_json, detail_json;
  for (const Metric& m : metrics) {
    const char* sep = metrics_json.empty() ? "" : ", ";
    metrics_json +=
        StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), Num(m.value).c_str(), m.unit);
    detail_json += StrFormat(
        "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
        "\"samples\": %lld%s%s}",
        detail_json.empty() ? "" : ",", m.name.c_str(), Num(m.value).c_str(),
        m.unit, static_cast<long long>(m.samples),
        m.percentile > 0 ? (", \"percentile\": " + Num(m.percentile)).c_str()
                         : "",
        std::isnan(m.raw) ? "" : (", \"wall_clock\": " + Num(m.raw)).c_str());
  }
  const std::string result_path = StrFormat(
      "%s/%s-seed%llu-trace%d.json", opt.out_dir.c_str(), w->name,
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  const std::string detail = StrFormat(
      "{\n  \"workload\": \"%s\", \"seed\": %llu, \"scale_factor\": %s,\n"
      "  \"parallel_workers\": %d, \"service_workers\": %d, \"clients\": %d,\n"
      "  \"seconds\": %s, \"trace\": %d, \"correct\": %s,\n"
      "  \"host_speed_median\": %s, \"epochs\": %zu,\n"
      "  \"attempted\": %lld, \"failed\": %lld, \"error_ratio\": %s,\n"
      "  \"metrics\": {%s\n  }\n}\n",
      w->name, static_cast<unsigned long long>(opt.seed),
      Num(w->scale_factor).c_str(), w->parallel_workers,
      w->service ? kServiceWorkers : 0, w->clients, Num(opt.seconds).c_str(),
      opt.trace ? 1 : 0, correct ? "true" : "false",
      Num(Median(host_speed)).c_str(), host_speed.size(),
      static_cast<long long>(attempted), static_cast<long long>(failed),
      Num(error_ratio).c_str(), detail_json.c_str());
  if (!WriteFile(result_path, detail)) return 1;

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tpcdbench

int main(int argc, char** argv) { return tpcdbench::Main(argc, argv); }
