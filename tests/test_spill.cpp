// External-merge sort spill tests: retry policy mechanics, SpillManager
// run-file round trips, temp-dir resolution, and end-to-end queries whose
// sorts are forced to spill with a tiny row budget — results must be
// byte-identical to the in-memory path (including stability and DESC
// keys), and every failure mode (injected faults, tripped guardrails,
// exhausted retries) must leave zero temp files behind.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "exec/spill.h"
#include "query_test_util.h"

namespace ordopt {
namespace {

// Spill files this process has left in `dir` (other processes' files are
// ignored via the pid prefix, so concurrent test binaries don't collide).
int SpillFilesIn(const std::string& dir) {
  std::string prefix = "ordopt-spill-" + std::to_string(::getpid()) + "-";
  int count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

int LeakedSpillFiles() { return SpillFilesIn(ResolveSpillTempDir("")); }

// Saves/restores ORDOPT_TMPDIR so tests that override it don't clobber a
// value set by the harness (scripts/check.sh runs this suite with the
// variable pointed at a private leak-check directory).
class ScopedTmpdirEnv {
 public:
  // Empty value clears the variable for the scope instead of setting it.
  explicit ScopedTmpdirEnv(const std::string& value) {
    const char* prev = std::getenv("ORDOPT_TMPDIR");
    if (prev != nullptr) saved_ = prev;
    had_prev_ = prev != nullptr;
    if (value.empty()) {
      ::unsetenv("ORDOPT_TMPDIR");
    } else {
      ::setenv("ORDOPT_TMPDIR", value.c_str(), 1);
    }
  }
  ~ScopedTmpdirEnv() {
    if (had_prev_) {
      ::setenv("ORDOPT_TMPDIR", saved_.c_str(), 1);
    } else {
      ::unsetenv("ORDOPT_TMPDIR");
    }
  }

 private:
  std::string saved_;
  bool had_prev_ = false;
};

OptimizerConfig SpillConfigWithBudget(int64_t budget) {
  OptimizerConfig config;
  config.cost_params.sort_memory_rows = budget;
  config.spill_retry.base_backoff_micros = 1;  // keep retry tests fast
  return config;
}

// --- Retry policy -------------------------------------------------------

TEST(RetryPolicyTest, BackoffDoublesAndCaps) {
  RetryPolicy policy;
  policy.base_backoff_micros = 100;
  policy.max_backoff_micros = 350;
  EXPECT_EQ(policy.BackoffMicros(1), 100);
  EXPECT_EQ(policy.BackoffMicros(2), 200);
  EXPECT_EQ(policy.BackoffMicros(3), 350);  // capped, not 400
  EXPECT_EQ(policy.BackoffMicros(10), 350);
}

TEST(RetryPolicyTest, TransientClassification) {
  EXPECT_TRUE(IsTransient(Status::IoError("disk hiccup")));
  EXPECT_FALSE(IsTransient(Status::Internal("bug")));
  EXPECT_FALSE(IsTransient(Status::ResourceExhausted("limit")));
  EXPECT_FALSE(IsTransient(Status::OK()));
}

TEST(RetryPolicyTest, RetriesTransientUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_micros = 1;
  int64_t retries = 0;
  int calls = 0;
  Status st = RetryIo(policy, &retries, [&]() -> Status {
    ++calls;
    if (calls < 3) return Status::IoError("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RetryPolicyTest, PermanentErrorIsNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_micros = 1;
  int64_t retries = 0;
  int calls = 0;
  Status st = RetryIo(policy, &retries, [&]() -> Status {
    ++calls;
    return Status::Internal("bug");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);
}

TEST(RetryPolicyTest, ExhaustedRetriesReturnLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_micros = 1;
  int64_t retries = 0;
  int calls = 0;
  Status st = RetryIo(policy, &retries, [&]() -> Status {
    ++calls;
    return Status::IoError("still flaky");
  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

// --- Temp-dir resolution ------------------------------------------------

TEST(SpillTempDirTest, ConfiguredDirWins) {
  EXPECT_EQ(ResolveSpillTempDir("/configured/dir"), "/configured/dir");
}

TEST(SpillTempDirTest, EnvOverrideAndDefault) {
  std::string override_dir =
      (std::filesystem::temp_directory_path() / "ordopt-tmpdir-test")
          .string();
  {
    ScopedTmpdirEnv env(override_dir);
    EXPECT_EQ(ResolveSpillTempDir(""), override_dir);
    // Configured still beats the environment.
    EXPECT_EQ(ResolveSpillTempDir("/configured"), "/configured");
  }
  {
    ScopedTmpdirEnv cleared("");
    EXPECT_EQ(ResolveSpillTempDir(""),
              std::filesystem::temp_directory_path().string());
  }
}

// --- SpillManager unit --------------------------------------------------

TEST(SpillManagerTest, WriteReadReleaseRoundTrip) {
  RuntimeMetrics metrics;
  SpillManager mgr(SpillConfig(), &metrics);
  std::vector<Row> rows = {
      {Value::Int(1), Value::Str("alpha"), Value::Null()},
      {Value::Double(2.5), Value::Date(12345), Value::Str("")},
      {Value::Int(-7), Value::Str("yet another string"), Value::Int(0)},
  };
  Result<std::unique_ptr<SpillRun>> run = mgr.WriteRun(rows);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  SpillRun* r = run.value().get();
  EXPECT_EQ(r->rows(), 3);
  EXPECT_GT(r->bytes(), 0);
  // The run is unlinked on creation: readable through its handle only.
  EXPECT_EQ(SpillFilesIn(mgr.temp_dir()), 0);
  EXPECT_EQ(metrics.spill_runs, 1);
  EXPECT_EQ(metrics.spill_rows, 3);
  EXPECT_EQ(metrics.spill_bytes, r->bytes());

  Row out;
  bool eof = false;
  for (const Row& expected : rows) {
    ASSERT_TRUE(mgr.ReadNext(r, &out, &eof).ok());
    ASSERT_FALSE(eof);
    EXPECT_EQ(out, expected);
    // Type tags must round-trip exactly, not merely compare equal.
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(static_cast<int>(out[i].type()),
                static_cast<int>(expected[i].type()));
    }
  }
  ASSERT_TRUE(mgr.ReadNext(r, &out, &eof).ok());
  EXPECT_TRUE(eof);

  std::string path = r->path();
  EXPECT_TRUE(mgr.ReleaseRun(std::move(run).value_unsafe()).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillManagerTest, DestructorRemovesFile) {
  RuntimeMetrics metrics;
  SpillManager mgr(SpillConfig(), &metrics);
  std::string path;
  {
    Result<std::unique_ptr<SpillRun>> run =
        mgr.WriteRun({{Value::Int(1)}});
    ASSERT_TRUE(run.ok());
    path = run.value()->path();
    // Still readable, yet no directory entry: a process killed here
    // leaves nothing behind.
    Row out;
    bool eof = true;
    ASSERT_TRUE(mgr.ReadNext(run.value().get(), &out, &eof).ok());
    EXPECT_FALSE(eof);
    EXPECT_EQ(SpillFilesIn(mgr.temp_dir()), 0);
    // Dropped without ReleaseRun: the RAII backstop closes the handle.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --- End-to-end spill queries -------------------------------------------

class SpillQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    BuildToyDatabase(&db_);
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  Database db_;
};

TEST_F(SpillQueryTest, SpilledSortMatchesInMemory) {
  const char* sql = "select eno, salary from emp order by salary, eno";
  QueryEngine in_memory(&db_);
  auto expected = in_memory.Run(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(expected.value().metrics.spill_runs, 0);

  QueryEngine spilling(&db_, SpillConfigWithBudget(5));
  auto got = spilling.Run(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().rows, expected.value().rows);

  const RuntimeMetrics& m = got.value().metrics;
  EXPECT_EQ(m.spill_runs, 40);  // 200 emp rows / 5-row budget
  EXPECT_EQ(m.spill_rows, 200);
  EXPECT_GT(m.spill_bytes, 0);
  EXPECT_EQ(m.spill_retries, 0);
  // The whole point: bounded memory. The sort never held more rows than
  // its budget at once.
  EXPECT_LE(m.rows_buffered_peak, 5);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

// Same physical plan executed with and without a spill budget: the merge
// of spilled runs must reproduce the in-memory stable sort exactly, ties
// and all. DESC on a low-cardinality key maximizes duplicate groups.
TEST_F(SpillQueryTest, SpillPreservesStabilityOnDuplicateKeys) {
  for (const char* sql :
       {"select eno, dno from emp order by dno",
        "select eno, dno from emp order by dno desc",
        "select eno, dno, age from emp order by age desc, dno"}) {
    QueryEngine engine(&db_);
    auto prepared = engine.Explain(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const PlanRef& plan = prepared.value().plan;

    RuntimeMetrics mem_metrics;
    auto mem = ExecutePlan(plan, &mem_metrics);
    ASSERT_TRUE(mem.ok()) << mem.status().ToString();

    SpillConfig spill_config;
    spill_config.sort_memory_rows = 7;
    RuntimeMetrics spill_metrics;
    auto spilled = ExecutePlan(plan, &spill_metrics, nullptr, &spill_config);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();

    EXPECT_EQ(spilled.value(), mem.value()) << sql;
    EXPECT_GT(spill_metrics.spill_runs, 1) << sql;
    EXPECT_EQ(LeakedSpillFiles(), 0) << sql;
  }
}

TEST_F(SpillQueryTest, BudgetOfOneAndDisabledBudget) {
  const char* sql = "select eno, salary from emp order by salary, eno";
  QueryEngine reference(&db_);
  auto expected = reference.Run(sql);
  ASSERT_TRUE(expected.ok());

  // Degenerate budget: every row its own run (k-way merge of 200 runs).
  QueryEngine one(&db_, SpillConfigWithBudget(1));
  auto got_one = one.Run(sql);
  ASSERT_TRUE(got_one.ok()) << got_one.status().ToString();
  EXPECT_EQ(got_one.value().rows, expected.value().rows);
  EXPECT_EQ(got_one.value().metrics.spill_runs, 200);

  // Zero disables spilling entirely.
  QueryEngine disabled(&db_, SpillConfigWithBudget(0));
  auto got_disabled = disabled.Run(sql);
  ASSERT_TRUE(got_disabled.ok());
  EXPECT_EQ(got_disabled.value().rows, expected.value().rows);
  EXPECT_EQ(got_disabled.value().metrics.spill_runs, 0);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

TEST_F(SpillQueryTest, OrdoptTmpdirOverrideIsUsedAndCleaned) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "ordopt-spill-test-dir")
          .string();
  std::filesystem::create_directories(dir);
  ScopedTmpdirEnv env(dir);
  QueryEngine engine(&db_, SpillConfigWithBudget(5));
  auto result = engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().metrics.spill_runs, 0);
  EXPECT_EQ(SpillFilesIn(dir), 0);  // used for runs, cleaned after
  std::filesystem::remove_all(dir);
}

// --- Degradation: faults, guardrails, retries ---------------------------

TEST_F(SpillQueryTest, TransientWriteFaultIsRetriedToSuccess) {
  // First two write attempts fail with a transient I/O error; the default
  // policy's third attempt succeeds, so the query completes normally.
  FaultInjector::Global().Arm("exec.sort.spill.write", 0, 2,
                              StatusCode::kIoError);
  QueryEngine engine(&db_, SpillConfigWithBudget(5));
  auto result =
      engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().metrics.spill_retries, 2);
  EXPECT_EQ(result.value().metrics.spill_rows, 200);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

TEST_F(SpillQueryTest, ExhaustedRetriesDegradeToIoError) {
  FaultInjector::Global().Arm("exec.sort.spill.write", 0, -1,
                              StatusCode::kIoError);
  QueryEngine engine(&db_, SpillConfigWithBudget(5));
  auto result =
      engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("exec.sort.spill.write"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

TEST_F(SpillQueryTest, TransientReadFaultIsRetriedToSuccess) {
  FaultInjector::Global().Arm("exec.sort.spill.read", 3, 1,
                              StatusCode::kIoError);
  QueryEngine engine(&db_, SpillConfigWithBudget(5));
  auto result =
      engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().metrics.spill_retries, 1);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

TEST_F(SpillQueryTest, GuardTripMidSpillLeavesNoFiles) {
  // The scan cap trips while sorted runs are already on disk; the query
  // must degrade to ResourceExhausted with every run file removed.
  OptimizerConfig config = SpillConfigWithBudget(3);
  config.limits.max_rows_scanned = 50;
  QueryEngine engine(&db_, config);
  auto result =
      engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

TEST_F(SpillQueryTest, SpillUnderComplexPlans) {
  // Joins + grouping above and below spilling sorts; verified against the
  // independent reference evaluator.
  const char* sql =
      "select d.dname, e.salary, e.eno from emp e, dept d "
      "where e.dno = d.dno and e.salary > 60 "
      "order by e.salary desc, e.eno";
  QueryEngine in_memory(&db_);
  auto expected = in_memory.Run(sql);
  ASSERT_TRUE(expected.ok());
  QueryEngine spilling(&db_, SpillConfigWithBudget(4));
  auto got = spilling.Run(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().rows, expected.value().rows);
  EXPECT_EQ(LeakedSpillFiles(), 0);
}

}  // namespace
}  // namespace ordopt
