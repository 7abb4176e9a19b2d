// Concurrent-service throughput/latency benchmark: N client sessions
// issue a mixed TPC-D workload against one QueryService and we report
// queries/sec, p50/p99 end-to-end latency, and the plan-cache hit rate
// at 1, 8, and 64 sessions, then a literal sweep (Q3 at 8 order dates from
// 4 sessions, every result checked against a fresh plan of its text).
// Custom main (not google-benchmark): the
// measurement unit is a whole closed-loop client fleet, and the output is
// the JSON consumed by scripts/check.sh --service (BENCH_service.json).
//
// Latency percentiles come from the shared log-scale Histogram
// (common/metrics.h), so BENCH_*.json and the live `service.latency_*`
// series agree on what p50/p99 mean.
//
// Usage: bench_service [output.json]
//        bench_service --metrics [output.json]
//
// --metrics runs the no-fault 64-session workload twice — once with the
// service's distribution instrumentation off, once with it on plus a
// MetricsReporter sampling the registry to a JSON-lines time series — and
// reports the throughput overhead, the exported registry JSON, and the
// counter-balance invariant (submitted = admitted + shed, admitted =
// completed + failed). scripts/check.sh --metrics gates on the output.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "service/query_service.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

constexpr const char* kTimeseriesPath = "BENCH_metrics_timeseries.jsonl";

struct LoadPoint {
  int sessions = 0;
  int64_t queries = 0;
  double elapsed_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cache_hit_rate = 0.0;
  int64_t shed = 0;
  ServiceStats stats;
  std::string metrics_json;
  int64_t reporter_samples = 0;
};

LoadPoint RunLoad(Database* db, int sessions, int queries_per_session,
                  bool enable_metrics = true,
                  const char* timeseries_path = nullptr) {
  const std::vector<std::string> workload = {
      tpcd_queries::kQuery3,
      tpcd_queries::kPricingSummary,
      tpcd_queries::kDistinctShipdates,
      tpcd_queries::kLateOrders,
      tpcd_queries::kRegionRevenue,
  };

  ServiceConfig config;
  config.workers = 4;
  config.queue_depth = 512;
  config.plan_cache_capacity = 64;
  config.enable_metrics = enable_metrics;
  QueryService service(db, config);

  std::unique_ptr<MetricsReporter> reporter;
  if (timeseries_path != nullptr) {
    reporter = std::make_unique<MetricsReporter>(&service.metrics(),
                                                 timeseries_path,
                                                 /*interval_seconds=*/0.05);
    reporter->Start();
  }

  std::vector<int64_t> session_ids;
  session_ids.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    session_ids.push_back(service.OpenSession());
  }

  // One shared histogram of end-to-end client latency: Record is
  // thread-sharded, so the client fleet feeds it without coordination.
  Histogram latency_us;
  std::atomic<int64_t> completed{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      for (int q = 0; q < queries_per_session; ++q) {
        const std::string& sql = workload[(s + q) % workload.size()];
        auto t0 = std::chrono::steady_clock::now();
        Result<QueryResult> result = service.Execute(session_ids[s], sql);
        auto t1 = std::chrono::steady_clock::now();
        if (result.ok()) {
          completed.fetch_add(1);
          latency_us.Record(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                  .count());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  LoadPoint point;
  point.sessions = sessions;
  point.queries = completed.load();
  point.elapsed_seconds = elapsed;
  point.qps = elapsed > 0 ? point.queries / elapsed : 0.0;
  HistogramSnapshot snap = latency_us.Snap();
  point.p50_ms = snap.Percentile(0.50) / 1000.0;
  point.p99_ms = snap.Percentile(0.99) / 1000.0;
  point.cache_hit_rate = service.plan_cache_hit_rate();
  point.stats = service.stats();
  point.shed = point.stats.shed_queue_full + point.stats.shed_session_cap +
               point.stats.shed_budget;
  if (reporter != nullptr) {
    Status st = reporter->Stop();
    if (!st.ok()) {
      std::fprintf(stderr, "bench_service: reporter: %s\n",
                   st.ToString().c_str());
    }
    point.reporter_samples = reporter->samples();
  }
  point.metrics_json = service.metrics().RenderJson();
  return point;
}

// The acceptance workload: one session re-running TPC-D Q3. After the
// first (planning) run, every execution must hit the cache and skip the
// optimizer entirely.
struct RepeatedQ3 {
  int runs = 0;
  int planning_skipped = 0;
  double cache_hit_rate = 0.0;
};

RepeatedQ3 RunRepeatedQ3(Database* db, int runs) {
  ServiceConfig config;
  config.workers = 2;
  config.plan_cache_capacity = 8;
  QueryService service(db, config);
  int64_t session = service.OpenSession();
  RepeatedQ3 result;
  result.runs = runs;
  for (int i = 0; i < runs; ++i) {
    Result<QueryResult> r = service.Execute(session, tpcd_queries::kQuery3);
    if (r.ok() && r.value().planned_from_cache) ++result.planning_skipped;
  }
  result.cache_hit_rate = service.plan_cache_hit_rate();
  return result;
}

// The literal sweep: TPC-D Q3 at kDates distinct dates, issued by kSessions
// sessions. The cache holds one generic plan for the template, so only the
// first request plans; every result must equal a fresh plan's rows.
struct LiteralSweep {
  static constexpr int kSessions = 4;
  static constexpr int kDates = 8;
  static constexpr int kRounds = 2;
  int64_t queries = 0;
  double cache_hit_rate = 0.0;
  int64_t custom_plans = 0;
  int64_t mismatches = 0;
};

LiteralSweep RunLiteralSweep(Database* db) {
  // Q3's date literal, moved 4 days at a time.
  const std::string canonical = "'1995-03-15'";
  int64_t base_day = 0;
  ParseDate("1995-03-01", &base_day);
  std::vector<std::string> texts;
  std::vector<std::vector<Row>> expected;
  QueryEngine reference(db);
  for (int d = 0; d < LiteralSweep::kDates; ++d) {
    std::string sql = tpcd_queries::kQuery3;
    const std::string date = "'" + FormatDate(base_day + 4 * d) + "'";
    for (size_t pos = sql.find(canonical); pos != std::string::npos;
         pos = sql.find(canonical, pos + date.size())) {
      sql.replace(pos, canonical.size(), date);
    }
    Result<QueryResult> fresh = reference.Run(sql);
    expected.push_back(fresh.ok() ? fresh.value().rows : std::vector<Row>());
    texts.push_back(std::move(sql));
  }

  ServiceConfig config;
  config.workers = 4;
  config.plan_cache_capacity = 64;
  QueryService service(db, config);
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int s = 0; s < LiteralSweep::kSessions; ++s) {
    clients.emplace_back([&, s] {
      const int64_t session = service.OpenSession();
      for (int q = 0; q < LiteralSweep::kDates * LiteralSweep::kRounds; ++q) {
        const size_t d = static_cast<size_t>((s + q) % LiteralSweep::kDates);
        Result<QueryResult> r = service.Execute(session, texts[d]);
        queries.fetch_add(1);
        if (!r.ok() || r.value().rows != expected[d]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LiteralSweep sweep;
  sweep.queries = queries.load();
  sweep.cache_hit_rate = service.plan_cache_hit_rate();
  sweep.custom_plans = service.plan_cache_stats().custom_plans;
  sweep.mismatches = mismatches.load();
  return sweep;
}

int WriteOut(const char* out_path, const std::string& json) {
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_service: cannot write %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench_service: wrote %s\n", out_path);
  std::fputs(json.c_str(), stdout);
  return 0;
}

/// --metrics: the observability overhead + correctness gate.
int MetricsMain(Database* db, const char* out_path) {
  // Warm-up fleet so neither measured run pays first-touch costs (page
  // faults, allocator growth, branch history) that would masquerade as
  // metrics overhead.
  std::fprintf(stderr, "bench_service: warm-up...\n");
  RunLoad(db, /*sessions=*/16, /*queries_per_session=*/4,
          /*enable_metrics=*/false);

  // Alternate off/on rounds and keep each mode's best throughput:
  // run-to-run scheduler noise on a shared host is an order of magnitude
  // larger than the instrumentation cost, and best-of-N cancels it while
  // a single pair would just measure which run drew the unlucky slice.
  constexpr int kRounds = 3;
  LoadPoint base, with;
  for (int round = 0; round < kRounds; ++round) {
    std::fprintf(stderr, "bench_service: round %d, metrics off...\n", round);
    LoadPoint b = RunLoad(db, /*sessions=*/64, /*queries_per_session=*/8,
                          /*enable_metrics=*/false);
    if (b.qps > base.qps) base = b;
    std::fprintf(stderr, "bench_service: round %d, metrics on...\n", round);
    LoadPoint w =
        RunLoad(db, /*sessions=*/64, /*queries_per_session=*/8,
                /*enable_metrics=*/true,
                round + 1 == kRounds ? kTimeseriesPath : nullptr);
    if (w.qps > with.qps || round + 1 == kRounds) {
      // Last round always refreshes the exported registry/time series so
      // the JSON below describes the run that produced the .jsonl file —
      // but keep the better qps for the overhead comparison.
      double best_qps = std::max(w.qps, with.qps);
      with = w;
      with.qps = best_qps;
    }
  }

  double overhead_pct =
      base.qps > 0 ? (base.qps - with.qps) / base.qps * 100.0 : 0.0;
  const ServiceStats& s = with.stats;
  int64_t shed = s.shed_queue_full + s.shed_session_cap + s.shed_budget;
  // Both relations read from ONE registry snapshot (stats()), after every
  // client joined: nothing is still in flight to blur them.
  bool balanced = s.submitted == s.admitted + shed &&
                  s.admitted == s.completed + s.failed;

  std::string json = StrFormat(
      "{\n  \"benchmark\": \"service-metrics\",\n"
      "  \"workload\": \"tpcd-mixed-5\",\n  \"workers\": 4,\n"
      "  \"sessions\": 64,\n"
      "  \"baseline_qps\": %.1f,\n  \"metrics_qps\": %.1f,\n"
      "  \"baseline_p99_ms\": %.3f,\n  \"metrics_p99_ms\": %.3f,\n"
      "  \"overhead_pct\": %.2f,\n  \"reporter_samples\": %lld,\n"
      "  \"timeseries\": \"%s\",\n"
      "  \"balance\": {\"submitted\": %lld, \"admitted\": %lld, "
      "\"shed\": %lld, \"completed\": %lld, \"failed\": %lld, "
      "\"balanced\": %s},\n",
      base.qps, with.qps, base.p99_ms, with.p99_ms, overhead_pct,
      static_cast<long long>(with.reporter_samples), kTimeseriesPath,
      static_cast<long long>(s.submitted), static_cast<long long>(s.admitted),
      static_cast<long long>(shed), static_cast<long long>(s.completed),
      static_cast<long long>(s.failed), balanced ? "true" : "false");
  json += "  \"metrics\": " + with.metrics_json + "\n}\n";
  return WriteOut(out_path, json);
}

int Main(int argc, char** argv) {
  bool metrics_mode = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_mode = true;
    } else {
      out_path = argv[i];
    }
  }
  if (out_path == nullptr) {
    out_path = metrics_mode ? "BENCH_metrics.json" : "BENCH_service.json";
  }

  Database db;
  TpcdConfig tpcd;
  tpcd.scale_factor = 0.002;
  Status load = LoadTpcd(&db, tpcd);
  if (!load.ok()) {
    std::fprintf(stderr, "bench_service: %s\n", load.ToString().c_str());
    return 1;
  }

  if (metrics_mode) return MetricsMain(&db, out_path);

  std::vector<LoadPoint> points;
  for (int sessions : {1, 8, 64}) {
    std::fprintf(stderr, "bench_service: %d session(s)...\n", sessions);
    points.push_back(RunLoad(&db, sessions, /*queries_per_session=*/8));
  }
  std::fprintf(stderr, "bench_service: repeated Q3...\n");
  RepeatedQ3 q3 = RunRepeatedQ3(&db, /*runs=*/20);
  std::fprintf(stderr, "bench_service: literal sweep...\n");
  LiteralSweep sweep = RunLiteralSweep(&db);

  std::string json = "{\n  \"benchmark\": \"service\",\n  \"workload\": "
                     "\"tpcd-mixed-5\",\n  \"workers\": 4,\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    json += StrFormat(
        "    {\"sessions\": %d, \"queries\": %lld, \"qps\": %.1f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"cache_hit_rate\": %.3f, "
        "\"shed\": %lld}%s\n",
        p.sessions, static_cast<long long>(p.queries), p.qps, p.p50_ms,
        p.p99_ms, p.cache_hit_rate, static_cast<long long>(p.shed),
        i + 1 < points.size() ? "," : "");
  }
  json += StrFormat(
      "  ],\n  \"repeated_q3\": {\"runs\": %d, \"planning_skipped\": %d, "
      "\"cache_hit_rate\": %.3f},\n",
      q3.runs, q3.planning_skipped, q3.cache_hit_rate);
  json += StrFormat(
      "  \"literal_sweep\": {\"template\": \"q3\", \"sessions\": %d, "
      "\"distinct_dates\": %d, \"queries\": %lld, "
      "\"cache_hit_rate\": %.3f, \"custom_plans\": %lld, "
      "\"mismatches\": %lld}\n}\n",
      LiteralSweep::kSessions, LiteralSweep::kDates,
      static_cast<long long>(sweep.queries), sweep.cache_hit_rate,
      static_cast<long long>(sweep.custom_plans),
      static_cast<long long>(sweep.mismatches));
  return WriteOut(out_path, json);
}

}  // namespace
}  // namespace ordopt

int main(int argc, char** argv) { return ordopt::Main(argc, argv); }
