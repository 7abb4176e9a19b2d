// Execution guardrail tests: per-query limits (deadline, rows scanned,
// rows produced, buffered rows/bytes) and cooperative cancellation must
// surface as the matching StatusCode with consumption metrics populated —
// never as a crash or a silently-truncated result.

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "exec/query_guard.h"
#include "query_test_util.h"

namespace ordopt {
namespace {

class GuardrailsTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildToyDatabase(&db_, 99, 300); }

  QueryEngine MakeEngine(QueryLimits limits) {
    OptimizerConfig config;
    config.limits = limits;
    return QueryEngine(&db_, config);
  }

  Database db_;
};

constexpr const char* kJoinQuery =
    "select e.eno, d.dname, t.hours from emp e, dept d, task t "
    "where e.dno = d.dno and t.eno = e.eno order by e.eno";

TEST_F(GuardrailsTest, UnlimitedConfigRunsToCompletion) {
  QueryEngine engine = MakeEngine(QueryLimits{});
  auto r = engine.Run(kJoinQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value().rows.size(), 0u);
}

TEST_F(GuardrailsTest, ScanLimitTripsWithResourceExhausted) {
  QueryLimits limits;
  limits.max_rows_scanned = 50;
  QueryEngine engine = MakeEngine(limits);
  auto r = engine.Run(kJoinQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("scan limit"), std::string::npos);
  // Consumed-vs-limit is reported even though the Result carries no rows.
  EXPECT_GT(engine.last_metrics().rows_scanned, 50);
}

TEST_F(GuardrailsTest, ProducedLimitTripsWithResourceExhausted) {
  QueryLimits limits;
  limits.max_rows_produced = 10;
  QueryEngine engine = MakeEngine(limits);
  auto r = engine.Run("select eno from emp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("output limit"), std::string::npos);
  EXPECT_EQ(engine.last_metrics().rows_produced, 11);
}

TEST_F(GuardrailsTest, ProducedLimitAboveResultSizeDoesNotTrip) {
  QueryLimits limits;
  limits.max_rows_produced = 12;  // dept has exactly 12 rows
  QueryEngine engine = MakeEngine(limits);
  auto r = engine.Run("select dno from dept");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows.size(), 12u);
}

TEST_F(GuardrailsTest, BufferedRowsLimitTripsOnBlockingSort) {
  QueryLimits limits;
  limits.max_buffered_rows = 20;
  QueryEngine engine = MakeEngine(limits);
  // ORDER BY salary has no supporting index: the plan must buffer every
  // emp row in a sort.
  auto r = engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("buffer limit"), std::string::npos);
  EXPECT_GT(engine.last_metrics().rows_buffered_peak, 20);
}

TEST_F(GuardrailsTest, BufferedBytesLimitTripsOnBlockingSort) {
  QueryLimits limits;
  limits.max_buffered_bytes = 512;
  QueryEngine engine = MakeEngine(limits);
  auto r = engine.Run("select eno, salary from emp order by salary, eno");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("bytes"), std::string::npos);
  EXPECT_GT(engine.last_metrics().bytes_buffered_peak, 512);
}

TEST_F(GuardrailsTest, TinyDeadlineTripsWithTimeout) {
  QueryLimits limits;
  limits.deadline_seconds = 1e-9;
  QueryEngine engine = MakeEngine(limits);
  auto r = engine.Run(kJoinQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
}

TEST_F(GuardrailsTest, GenerousLimitsReturnCorrectRowsAndPeaks) {
  QueryLimits limits;
  limits.deadline_seconds = 3600.0;
  limits.max_rows_scanned = 10'000'000;
  limits.max_rows_produced = 10'000'000;
  limits.max_buffered_rows = 10'000'000;
  limits.max_buffered_bytes = int64_t{1} << 40;
  QueryEngine engine = MakeEngine(limits);
  auto guarded =
      engine.Run("select eno, salary from emp order by salary, eno");

  QueryEngine unguarded(&db_);
  auto reference =
      unguarded.Run("select eno, salary from emp order by salary, eno");

  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Canonicalize(guarded.value().rows),
            Canonicalize(reference.value().rows));
  // The sort buffered the table; the high-water mark must show it.
  EXPECT_GT(guarded.value().metrics.rows_buffered_peak, 0);
  EXPECT_GT(guarded.value().metrics.bytes_buffered_peak, 0);
}

TEST_F(GuardrailsTest, PreCancelledGuardReturnsCancelled) {
  QueryEngine engine(&db_);
  QueryGuard guard;
  guard.RequestCancel();
  auto r = engine.Run(kJoinQuery, &guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_NE(r.status().message().find("cancelled"), std::string::npos);
}

TEST_F(GuardrailsTest, CallerGuardLimitsOverrideConfig) {
  // The engine config is unlimited; the caller-supplied guard is not.
  QueryEngine engine(&db_);
  QueryLimits limits;
  limits.max_rows_produced = 5;
  QueryGuard guard(limits);
  auto r = engine.Run("select eno from emp", &guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.rows_produced(), 6);
}

TEST_F(GuardrailsTest, BufferChargeReleasesBetweenQueries) {
  // A shared guard across sequential queries must not accumulate buffered
  // charge: operators release their accounts on Close.
  QueryLimits limits;
  limits.max_buffered_rows = 400;  // enough for one sort of 300 emp rows
  QueryEngine engine = MakeEngine(limits);
  for (int i = 0; i < 3; ++i) {
    auto r = engine.Run("select eno from emp order by salary, eno");
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": "
                        << r.status().ToString();
  }
}

TEST_F(GuardrailsTest, BufferedRowsLimitTripsEveryLeftJoinAlgorithm) {
  struct Case {
    OpKind kind;
    bool hash_join;
    const char* sql;
  };
  const Case cases[] = {
      {OpKind::kHashLeftJoin, true,
       "select e.eno, t.hours from emp e left join task t on e.eno = t.eno"},
      {OpKind::kMergeLeftJoin, false,
       "select d.dno, e.eno from dept d left join emp e on d.dno = e.dno"},
      // A non-equality ON conjunct forces the general nested-loop form.
      {OpKind::kNaiveLeftJoin, true,
       "select d.dno, e.eno from dept d left join emp e "
       "on d.dno = e.dno and d.budget > e.salary"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(OpKindName(c.kind));
    OptimizerConfig config;
    config.enable_hash_join = c.hash_join;
    QueryEngine engine(&db_, config);
    auto unguarded = engine.Run(c.sql);
    ASSERT_TRUE(unguarded.ok()) << unguarded.status().ToString();
    ASSERT_TRUE(unguarded.value().plan->ContainsKind(c.kind));

    QueryLimits limits;
    limits.max_buffered_rows = 10;
    QueryGuard guard(limits);
    auto r = engine.Run(c.sql, &guard);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("buffer limit"), std::string::npos);
    EXPECT_GT(guard.buffered_rows_peak(), 10);
    // Every operator released its charge on Close, failed query or not.
    EXPECT_EQ(guard.buffered_rows(), 0);
    EXPECT_EQ(guard.buffered_bytes(), 0);
  }
}

// Hash grouping holds one buffered row per group, not one per input row:
// 300 emp rows in at most 48 age groups fit under a limit just above the
// group count, while the ~140 salary groups trip it and every charge is
// released on the failure path.
TEST_F(GuardrailsTest, HashGroupByBuffersOneRowPerGroup) {
  QueryEngine engine(&db_);
  const char* few_groups = "select age, count(*), sum(salary) from emp "
                           "group by age";
  const char* many_groups = "select salary, count(*) from emp "
                            "group by salary";
  auto few = engine.Run(few_groups);
  auto many = engine.Run(many_groups);
  ASSERT_TRUE(few.ok() && many.ok());
  ASSERT_TRUE(few.value().plan->ContainsKind(OpKind::kHashGroupBy));
  ASSERT_TRUE(many.value().plan->ContainsKind(OpKind::kHashGroupBy));
  const int64_t groups = static_cast<int64_t>(few.value().rows.size());
  ASSERT_LE(groups, 48);
  ASSERT_GT(static_cast<int64_t>(many.value().rows.size()), groups + 2);

  QueryLimits limits;
  limits.max_buffered_rows = groups + 2;
  {
    QueryGuard guard(limits);
    auto r = engine.Run(few_groups, &guard);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().rows, few.value().rows);
    EXPECT_EQ(guard.buffered_rows_peak(), groups);
  }
  {
    QueryGuard guard(limits);
    auto r = engine.Run(many_groups, &guard);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(r.status().message().find("buffer limit"), std::string::npos);
    EXPECT_EQ(guard.buffered_rows(), 0);
    EXPECT_EQ(guard.buffered_bytes(), 0);
  }
}

TEST_F(GuardrailsTest, GuardStateDirectly) {
  QueryLimits limits;
  limits.max_rows_scanned = 2;
  QueryGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.ok());
  EXPECT_TRUE(guard.OnRowScanned());
  EXPECT_TRUE(guard.OnRowScanned());
  EXPECT_FALSE(guard.OnRowScanned());  // third row breaches the limit
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  // First trip latches: later events do not overwrite the status.
  EXPECT_FALSE(guard.OnRowProduced());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);

  RuntimeMetrics metrics;
  guard.ReportTo(&metrics);
  EXPECT_EQ(metrics.rows_buffered_peak, 0);
}

TEST_F(GuardrailsTest, ApproxRowBytesCountsStringPayload) {
  Row small = {Value::Int(1)};
  Row big = {Value::Str(std::string(1000, 'x'))};
  EXPECT_GT(ApproxRowBytes(big), ApproxRowBytes(small) + 900);
}

}  // namespace
}  // namespace ordopt
