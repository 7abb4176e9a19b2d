// Golden plan-stability tests: canonical fingerprints (PlanFingerprint) of
// the plans chosen for the TPC-D suite and the §6 example schema, compared
// byte-for-byte against checked-in goldens. Any optimizer refactor that
// claims to be plan-preserving must keep this file green without
// regenerating the goldens. The query catalog lives in golden_queries.h,
// shared with the plan-space differential oracle (test_plan_space).
//
// The same cases also pin the planner's search: plan_decisions.txt holds,
// per case, the plans generated and retained, the reduce-cache hits and
// misses, and a digest of every optimizer trace event, so a refactor that
// keeps the plans but changes the decisions behind them fails too.
//
// The same cases also pin serial execution: exec_fingerprints.txt holds,
// per case, a digest of the result rows plus every runtime counter, which
// must read the same at batch 1024, 3 and 1 apart from the counters listed
// in kBatchDependent. Parallel runs are not covered: their counters follow
// morsel-claim timing (DESIGN.md §15).
//
// Regenerate (only for intentional plan or execution changes):
//   ORDOPT_UPDATE_GOLDENS=1 ./build/tests/test_plan_fingerprint

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "golden_queries.h"

namespace ordopt {
namespace {

std::string GoldenPath(const char* file) {
  return std::string(ORDOPT_TESTS_DIR) + "/golden/" + file;
}

bool UpdateGoldens() {
  const char* env = std::getenv("ORDOPT_UPDATE_GOLDENS");
  return env != nullptr && env[0] == '1';
}

// Compares `lines` with the golden `file` line by line, or rewrites the
// golden (and skips) under ORDOPT_UPDATE_GOLDENS=1.
void ExpectMatchesGolden(const char* file,
                         const std::vector<std::string>& lines) {
  const std::string path = GoldenPath(file);
  if (UpdateGoldens()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "goldens regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with ORDOPT_UPDATE_GOLDENS=1 to create it";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.push_back(line);
  }

  ASSERT_EQ(golden.size(), lines.size())
      << "golden case count changed; regenerate with "
         "ORDOPT_UPDATE_GOLDENS=1 if intentional";
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i]) << file << " drifted for case #" << i;
  }
}

// Runs `collect` over the example database and then TPC-D at SF 0.002.
template <typename Collect>
void CollectOverGoldenDatabases(Collect collect) {
  {
    Database db;
    BuildExampleDb(&db);
    collect(&db, ExampleCases());
  }
  {
    Database db;
    TpcdConfig config;
    config.scale_factor = 0.002;
    ASSERT_TRUE(LoadTpcd(&db, config).ok());
    collect(&db, TpcdCases());
  }
}

void CollectFingerprints(Database* db, const std::vector<GoldenCase>& cases,
                         std::vector<std::string>* lines) {
  for (const GoldenCase& c : cases) {
    QueryEngine engine(db, c.config);
    Result<QueryResult> r = engine.Explain(c.sql);
    ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
    lines->push_back(c.name + " " + PlanFingerprint(*r.value().plan));
  }
}

TEST(PlanFingerprint, GoldenPlansAreStable) {
  std::vector<std::string> lines;
  CollectOverGoldenDatabases(
      [&](Database* db, const std::vector<GoldenCase>& cases) {
        CollectFingerprints(db, cases, &lines);
      });
  ExpectMatchesGolden("plan_fingerprints.txt", lines);
}

// FNV-1a, folded one string at a time.
constexpr uint64_t kFnvOffset = 14695981039346656037ull;

void FnvMix(uint64_t* h, const std::string& s) {
  for (unsigned char ch : s) {
    *h ^= ch;
    *h *= 1099511628211ull;
  }
}

std::string Hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Planner effort and decision trail per golden case: the search counters
// of an untraced Explain, then the count and FNV-1a digest of every
// optimizer event (ToShortString, in emission order) of the same Explain
// under TraceLevel::kOptimizer. A planner refactor that keeps every plan
// but changes how many candidates it builds, what it reduces through the
// cache, or which order decisions it reports, drifts here.
TEST(PlanFingerprint, GoldenDecisionsAreStable) {
  std::vector<std::string> lines;
  CollectOverGoldenDatabases(
      [&](Database* db, const std::vector<GoldenCase>& cases) {
        for (const GoldenCase& c : cases) {
          QueryEngine untraced(db, c.config);
          Result<QueryResult> r = untraced.Explain(c.sql);
          ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
          OptimizerConfig traced_config = c.config;
          traced_config.trace_level = TraceLevel::kOptimizer;
          QueryEngine traced(db, traced_config);
          Result<QueryResult> t = traced.Explain(c.sql);
          ASSERT_TRUE(t.ok()) << c.name << ": " << t.status().ToString();
          ASSERT_NE(t.value().trace, nullptr) << c.name;
          uint64_t digest = kFnvOffset;
          int64_t events = 0;
          for (const TraceEvent& e : t.value().trace->events()) {
            if (e.phase() != "optimizer") continue;
            FnvMix(&digest, e.ToShortString() + "\n");
            ++events;
          }
          const QueryResult& q = r.value();
          lines.push_back(
              c.name + " generated=" + std::to_string(q.plans_generated) +
              " retained=" + std::to_string(q.plans_retained) +
              " reduce_hits=" + std::to_string(q.reduce_cache_hits) +
              " reduce_misses=" + std::to_string(q.reduce_cache_misses) +
              " events=" + std::to_string(events) +
              " digest=" + Hex64(digest));
        }
      });
  ExpectMatchesGolden("plan_decisions.txt", lines);
}

// FNV-1a over the rendered rows, in result order.
uint64_t RowDigest(const std::vector<Row>& rows) {
  uint64_t h = kFnvOffset;
  for (const Row& row : rows) {
    for (const Value& v : row) FnvMix(&h, v.ToString() + "|");
    FnvMix(&h, "\n");
  }
  return h;
}

// Counters that differ across batch sizes in one golden case, by the way
// batches pipeline rather than by anything a refactor would change: a
// merge join that stops once its inner side is exhausted leaves the rest of
// its outer side's last batch scanned but unused, and buffered peaks sum
// what operators hold at one moment, which depends on how their batches
// interleave. The batch-1024 value of each is still pinned by the golden.
const std::vector<std::pair<std::string, std::string>> kBatchDependent = {
    {"example/figure6_no_sort_ahead", "rows_buffered_peak"},
    {"example/figure6_no_sort_ahead", "bytes_buffered_peak"},
    {"tpcd/late_orders/db2", "rows_scanned"},
    {"tpcd/late_orders/disabled", "rows_scanned"},
};

bool BatchDependent(const std::string& name, const char* counter) {
  for (const auto& [n, c] : kBatchDependent) {
    if (n == name && c == counter) return true;
  }
  return false;
}

// One serial run of `c` at `batch_rows`: the row count and digest, then
// every runtime counter. With `mask_batch_dependent` the counters listed
// in kBatchDependent for this case read `*`.
std::string ExecFingerprint(Database* db, const GoldenCase& c,
                            int64_t batch_rows, bool mask_batch_dependent) {
  OptimizerConfig config = c.config;
  config.batch_rows = batch_rows;
  QueryEngine engine(db, config);
  Result<QueryResult> r = engine.Run(c.sql);
  if (!r.ok()) return c.name + " error: " + r.status().ToString();
  std::string line = c.name + " rows=" +
                     std::to_string(r.value().rows.size()) + " digest=" +
                     Hex64(RowDigest(r.value().rows));
  const RuntimeMetrics& m = r.value().metrics;
#define ORDOPT_APPEND_COUNTER(field, ...)                            \
  line += " " #field "=" +                                           \
          (mask_batch_dependent && BatchDependent(c.name, #field)    \
               ? std::string("*")                                    \
               : std::to_string(m.field));
  ORDOPT_RUNTIME_COUNTERS(ORDOPT_APPEND_COUNTER)
#undef ORDOPT_APPEND_COUNTER
  return line;
}

// Serial execution identity: every golden case yields the same rows and
// the same runtime counters at batch 1024, 3 and 1 (bar kBatchDependent),
// and its batch-1024 line matches the checked-in exec_fingerprints.txt.
TEST(PlanFingerprint, GoldenExecutionIsStable) {
  std::vector<std::string> lines;
  CollectOverGoldenDatabases(
      [&](Database* db, const std::vector<GoldenCase>& cases) {
        for (const GoldenCase& c : cases) {
          ASSERT_LE(c.config.parallel_workers, 1) << c.name;
          const std::string masked = ExecFingerprint(db, c, kDefaultBatchRows,
                                                     /*mask=*/true);
          for (int64_t batch_rows : {3, 1}) {
            EXPECT_EQ(ExecFingerprint(db, c, batch_rows, /*mask=*/true), masked)
                << "batch_rows=" << batch_rows;
          }
          lines.push_back(
              ExecFingerprint(db, c, kDefaultBatchRows, /*mask=*/false));
        }
      });
  // Runtime order verification (ORDOPT_VERIFY_ORDERS) keeps the checked
  // columns through pruning, which changes the buffered byte counts; the
  // golden describes unverified runs.
  const char* verify = std::getenv("ORDOPT_VERIFY_ORDERS");
  if (verify != nullptr && verify[0] != '\0' && std::string(verify) != "0") {
    GTEST_SKIP() << "exec goldens describe runs without order verification";
  }
  ExpectMatchesGolden("exec_fingerprints.txt", lines);
}

// Fingerprints are strict: two queries with different plans must not
// collide, and the same query planned twice must collide exactly.
TEST(PlanFingerprint, DeterministicAndDiscriminating) {
  Database db;
  BuildExampleDb(&db);
  QueryEngine engine(&db, Db2Config());
  Result<QueryResult> a1 = engine.Explain("select x, y from b order by x");
  Result<QueryResult> a2 = engine.Explain("select x, y from b order by x");
  Result<QueryResult> b = engine.Explain("select x, y from a order by x, y");
  ASSERT_TRUE(a1.ok() && a2.ok() && b.ok());
  EXPECT_EQ(PlanFingerprint(*a1.value().plan),
            PlanFingerprint(*a2.value().plan));
  EXPECT_NE(PlanFingerprint(*a1.value().plan),
            PlanFingerprint(*b.value().plan));
}

}  // namespace
}  // namespace ordopt
