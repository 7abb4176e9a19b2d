// Execution guardrail tests: per-query limits (deadline, rows scanned,
// rows produced, buffered rows/bytes) and cooperative cancellation must
// surface as the matching StatusCode with consumption metrics populated —
// never as a crash or a silently-truncated result.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>

#include "exec/engine.h"
#include "exec/exact_sum.h"
#include "exec/query_guard.h"
#include "query_test_util.h"
#include "tpcd/tpcd.h"

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

// A SUM over doubles whose group needs an ExactSum — here every term is
// +Inf, which only an ExactSum records — holds one per group, charged like
// the group's key row: a high-cardinality double SUM then trips a byte
// limit that the same group-by's key rows alone stay under.
TEST(GuardrailsExactSum, BufferedBytesLimitCountsExactSums) {
  Database db;
  TpcdConfig tpcd;
  tpcd.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, tpcd).ok());
  const std::string keys_only =
      "select l_extendedprice, count(*) from lineitem "
      "group by l_extendedprice";
  // l_extendedprice (at least 900) times 10^306 overflows to +Inf.
  const std::string sums = "select l_extendedprice, sum(l_extendedprice * 1" +
                           std::string(306, '0') +
                           ".0) from lineitem group by l_extendedprice";
  OptimizerConfig config;
  config.enable_hash_grouping = true;
  QueryEngine unlimited(&db, config);
  auto keys = unlimited.Run(keys_only);
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  const int64_t groups = static_cast<int64_t>(keys.value().rows.size());
  ASSERT_GT(groups, 1000);
  const int64_t key_bytes = keys.value().metrics.bytes_buffered_peak;
  const int64_t exact_bytes = groups * static_cast<int64_t>(sizeof(ExactSum));
  auto summed = unlimited.Run(sums);
  ASSERT_TRUE(summed.ok()) << summed.status().ToString();
  EXPECT_EQ(summed.value().rows[0][1].AsDouble(),
            std::numeric_limits<double>::infinity());
  EXPECT_GE(summed.value().metrics.bytes_buffered_peak,
            key_bytes + exact_bytes);

  config.limits.max_buffered_bytes = key_bytes + exact_bytes / 2;
  QueryEngine limited(&db, config);
  EXPECT_TRUE(limited.Run(keys_only).ok());
  auto tripped = limited.Run(sums);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(tripped.status().message().find("bytes"), std::string::npos);
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

// In-sort aggregation under the DB2/CS profile: a SortGroupBy's sort folds
// up to B/2 resident groups and buffers, sorts and spills the rest at
// B - resident rows, so the pair never holds more than B rows. The ~48 age
// groups overflow B = 20, so runs still spill, and the rows match the
// unbudgeted run exactly (avg is a double, compared bit for bit).
class InSortAggregationTest : public GuardrailsTest {
 protected:
  static constexpr const char* kAgeGroups =
      "select age, count(*), sum(salary), avg(salary) from emp group by age";

  void SetUp() override {
    GuardrailsTest::SetUp();
    spill_dir_ = (std::filesystem::temp_directory_path() /
                  ("ordopt-insort-" + std::to_string(::getpid())))
                     .string();
    std::filesystem::remove_all(spill_dir_);
    std::filesystem::create_directories(spill_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(spill_dir_); }

  QueryEngine Db2Engine(int64_t budget) {
    OptimizerConfig config;
    config.enable_hash_join = false;
    config.enable_hash_grouping = false;
    config.cost_params.sort_memory_rows = budget;
    config.spill_temp_dir = spill_dir_;
    return QueryEngine(&db_, config);
  }

  int SpillFiles() const {
    return static_cast<int>(
        std::distance(std::filesystem::directory_iterator(spill_dir_),
                      std::filesystem::directory_iterator()));
  }

  std::string spill_dir_;
};

TEST_F(InSortAggregationTest, PeakStaysWithinBudgetAndRowsMatch) {
  constexpr int64_t kBudget = 20;
  QueryEngine unbudgeted = Db2Engine(0);
  auto reference = unbudgeted.Run(kAgeGroups);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference.value().plan->ContainsKind(OpKind::kSortGroupBy));
  ASSERT_GT(static_cast<int64_t>(reference.value().rows.size()),
            kBudget / 2);

  QueryEngine engine = Db2Engine(kBudget);
  QueryGuard guard{QueryLimits()};
  auto r = engine.Run(kAgeGroups, &guard);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(guard.buffered_rows_peak(), kBudget);
  EXPECT_GT(r.value().metrics.spill_runs, 0);
  const std::vector<Row>& rows = r.value().rows;
  const std::vector<Row>& expected = reference.value().rows;
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].size(), expected[i].size());
    for (size_t c = 0; c < rows[i].size(); ++c) {
      ASSERT_EQ(rows[i][c].type(), expected[i][c].type());
      if (rows[i][c].type() != DataType::kDouble) {
        EXPECT_EQ(rows[i][c], expected[i][c]);
        continue;
      }
      const double a = rows[i][c].AsDouble();
      const double b = expected[i][c].AsDouble();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << "row " << i;
    }
  }
  EXPECT_EQ(SpillFiles(), 0);
}

// A buffer-limit trip fails the query cleanly, with every charge released
// and every run file removed, wherever it happens: at a resident group's
// charge (limit 5), in the absorbing sort's buffer (limit 15), or in a sort
// above the group-by (limit 20) while the absorbing sort's runs are open.
TEST_F(InSortAggregationTest, BufferLimitTripReleasesEverything) {
  QueryEngine engine = Db2Engine(20);
  const std::string ordered =
      std::string(kAgeGroups) + " order by sum(salary)";
  for (const auto& [limit, sql] :
       {std::pair<int64_t, std::string>{5, kAgeGroups}, {15, kAgeGroups},
        {20, ordered}}) {
    SCOPED_TRACE(sql + " limit " + std::to_string(limit));
    QueryLimits limits;
    limits.max_buffered_rows = limit;
    QueryGuard guard(limits);
    auto r = engine.Run(sql, &guard);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(guard.buffered_rows(), 0);
    EXPECT_EQ(guard.buffered_bytes(), 0);
    EXPECT_EQ(SpillFiles(), 0);
  }
}

TEST_F(GuardrailsTest, GuardStateDirectly) {
  QueryLimits limits;
  limits.max_rows_scanned = 2;
  QueryGuard guard(limits);
  guard.Arm();
  EXPECT_TRUE(guard.ok());
  EXPECT_EQ(guard.OnRowsScanned(1), 1);
  EXPECT_EQ(guard.OnRowsScanned(1), 1);
  EXPECT_EQ(guard.OnRowsScanned(1), 0);  // third row breaches the limit
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.rows_scanned(), 3);
  // First trip latches: later events do not overwrite the status.
  EXPECT_FALSE(guard.OnRowProduced());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);

  RuntimeMetrics metrics;
  guard.ReportTo(&metrics);
  EXPECT_EQ(metrics.rows_buffered_peak, 0);

  // A batch charge admits the rows up to the limit; the tripping row is
  // counted, the rows after it are not.
  QueryGuard batch_guard(limits);
  batch_guard.Arm();
  EXPECT_EQ(batch_guard.OnRowsScanned(5), 2);
  EXPECT_FALSE(batch_guard.ok());
  EXPECT_EQ(batch_guard.rows_scanned(), 3);
  EXPECT_NE(batch_guard.status().message().find("3 rows scanned"),
            std::string::npos)
      << batch_guard.status().ToString();
  // A tripped guard admits nothing and counts one row per charge.
  EXPECT_EQ(batch_guard.OnRowsScanned(4), 0);
  EXPECT_EQ(batch_guard.rows_scanned(), 4);
}

TEST_F(GuardrailsTest, ApproxRowBytesCountsStringPayload) {
  Row small = {Value::Int(1)};
  Row big = {Value::Str(std::string(1000, 'x'))};
  EXPECT_GT(ApproxRowBytes(big), ApproxRowBytes(small) + 900);
}

}  // namespace
}  // namespace ordopt
