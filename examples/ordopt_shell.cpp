// Interactive SQL shell over the TPC-D database — the "kick the tires"
// entry point. Reads one statement per line; dot-commands control the
// optimizer configuration so you can watch plans change:
//
//   .explain <sql>     show the plan without executing
//   explain analyze <sql>
//                      execute and show the plan annotated with
//                      per-operator est-vs-actual rows, timings, and the
//                      optimizer's traced decisions
//   .trace <path>|off  export each query's trace as JSON lines to <path>
//                      (same as the ORDOPT_TRACE environment variable)
//   .orderopt on|off   toggle order optimization (the paper's §8 switch)
//   .hash on|off       toggle hash join/aggregation (DB2/CS profile = off)
//   .sortahead on|off  toggle sort-ahead
//   .sortmem <rows>    sort-memory budget; small values force sorts to
//                      spill runs to temp files (0 = never spill). A sort
//                      under a SortGroupBy folds up to <rows>/2 groups in
//                      place (every group at 0) and buffers only the rest,
//                      so a query with few groups never spills
//   .qgm <sql>         show the bound QGM box tree
//   .metrics           dump the process metrics registry (counters,
//                      gauges, histograms) in text exposition format
//   .tables            list tables
//   .quit
//
// Usage: ordopt_shell [scale_factor]   (default 0.01)

#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/metrics.h"
#include "common/str_util.h"
#include "exec/engine.h"
#include "tpcd/tpcd.h"

using namespace ordopt;

namespace {

void PrintResult(const QueryResult& r, size_t max_rows = 20) {
  std::printf("%s", r.plan_text.c_str());
  if (!r.column_names.empty()) {
    std::printf("-- %s\n", Join(r.column_names, " | ").c_str());
  }
  for (size_t i = 0; i < r.rows.size() && i < max_rows; ++i) {
    std::vector<std::string> cells;
    for (const Value& v : r.rows[i]) cells.push_back(v.ToString());
    std::printf("   %s\n", Join(cells, " | ").c_str());
  }
  if (r.rows.size() > max_rows) {
    std::printf("   ... (%zu rows total)\n", r.rows.size());
  }
  std::printf("%zu rows. wall %.1f ms, simulated-1996 %.3f s  [%s]\n",
              r.rows.size(), r.elapsed_seconds * 1000.0,
              r.SimulatedElapsedSeconds(), r.metrics.ToString().c_str());
}

// Case-insensitive "does `line` start with `prefix`" for SQL-style
// keywords (EXPLAIN ANALYZE).
bool StartsWithNoCase(const std::string& line, const char* prefix) {
  size_t n = std::strlen(prefix);
  if (line.size() < n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(prefix[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseOnOff(const std::string& arg, bool* out) {
  if (arg == "on") {
    *out = true;
    return true;
  }
  if (arg == "off") {
    *out = false;
    return true;
  }
  std::printf("expected 'on' or 'off'\n");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.01;
  if (argc > 1) sf = std::atof(argv[1]);

  Database db;
  TpcdConfig data;
  data.scale_factor = sf;
  std::printf("loading TPC-D at SF=%.3f ...\n", sf);
  Status st = LoadTpcd(&db, data);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  OptimizerConfig cfg;
  // Standalone shell = the process-wide registry; .metrics dumps it.
  cfg.metrics = &MetricsRegistry::Global();
  QueryEngine engine(&db, cfg);
  std::printf("ready. tables: customer orders lineitem nation region\n"
              "try: select o_orderkey, count(*) from orders group by "
              "o_orderkey order by o_orderkey limit 5\n"
              "     explain analyze <sql>   .explain <sql>   .trace <path>\n"
              "     .orderopt off   .hash off   .metrics   .quit\n\n");

  std::string line;
  while (std::printf("ordopt> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".metrics") {
      std::printf("%s", MetricsRegistry::Global().RenderText().c_str());
      continue;
    }
    if (line == ".tables") {
      for (const auto& [name, table] : db.tables()) {
        std::printf("  %-10s %lld rows\n", name.c_str(),
                    static_cast<long long>(table->row_count()));
      }
      continue;
    }
    auto starts = [&](const char* p) {
      return line.rfind(p, 0) == 0;
    };
    if (starts(".orderopt ") || starts(".hash ") || starts(".sortahead ")) {
      std::string arg = line.substr(line.find(' ') + 1);
      bool value = false;
      if (!ParseOnOff(arg, &value)) continue;
      if (starts(".orderopt ")) {
        cfg.enable_order_optimization = value;
      } else if (starts(".hash ")) {
        cfg.enable_hash_join = value;
        cfg.enable_hash_grouping = value;
      } else {
        cfg.enable_sort_ahead = value;
      }
      engine.set_config(cfg);
      std::printf("ok (orderopt=%s hash=%s sortahead=%s)\n",
                  cfg.enable_order_optimization ? "on" : "off",
                  cfg.enable_hash_join ? "on" : "off",
                  cfg.enable_sort_ahead ? "on" : "off");
      continue;
    }
    if (starts(".sortmem ")) {
      cfg.cost_params.sort_memory_rows = std::atoll(line.c_str() + 9);
      engine.set_config(cfg);
      std::printf("ok (sort_memory_rows=%lld)\n",
                  static_cast<long long>(cfg.cost_params.sort_memory_rows));
      continue;
    }
    if (starts(".trace ")) {
      std::string arg = line.substr(7);
      if (arg == "off") {
        cfg.trace_path.clear();
        std::printf("trace export off\n");
      } else {
        cfg.trace_path = arg;
        std::printf("tracing queries to %s (JSON lines)\n", arg.c_str());
      }
      engine.set_config(cfg);
      continue;
    }
    if (StartsWithNoCase(line, "explain analyze ")) {
      auto r = engine.RunAnalyzed(line.substr(16));
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
      } else {
        // The query_id header joins this output to trace events and the
        // engine.* metric series for the same execution.
        std::printf("-- query_id=%lld\n",
                    static_cast<long long>(r.value().query_id));
        std::printf("%s", r.value().analyzed_plan_text.c_str());
        std::printf("%zu rows. wall %.1f ms, simulated-1996 %.3f s\n",
                    r.value().rows.size(),
                    r.value().elapsed_seconds * 1000.0,
                    r.value().SimulatedElapsedSeconds());
      }
      continue;
    }
    if (starts(".qgm ")) {
      auto r = engine.Explain(line.substr(5));
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
      } else {
        std::printf("%s", r.value().qgm_text.c_str());
      }
      continue;
    }
    if (starts(".explain ")) {
      auto r = engine.Explain(line.substr(9));
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
      } else {
        std::printf("%s", r.value().plan_text.c_str());
      }
      continue;
    }
    auto r = engine.Run(line);
    if (!r.ok()) {
      std::printf("%s\n", r.status().ToString().c_str());
      continue;
    }
    PrintResult(r.value());
  }
  return 0;
}
