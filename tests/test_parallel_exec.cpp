// Parallel-determinism battery for morsel-parallel execution
// (src/exec/parallel/). The tentpole claim is *exact* determinism, not
// mere multiset equality: monotone morsel claims give every worker a
// provenance-ascending stream, provenance values partition across
// workers, and the order-preserving merge exchange recombines the
// streams on (sort spec, provenance) — so a parallel run's row sequence
// is byte-identical to the serial run's, at any worker count and any
// batch size. The battery pins that down over every golden query
// (examples + TPC-D) at 1/2/4/8 workers, under adversarial per-worker
// batch sizes (1, 3, 1024), at empty-result and single-morsel edge
// cases, with runtime order verification on for the whole matrix, and
// under injected faults at the two parallel sites (one worker failing
// must cancel the whole query cleanly: clean Status naming the site,
// shared budget drained to zero, no leaked spill files). A final tsan
// regression hammers one QueryGuard from 8 threads — this test fails
// under tsan on the pre-audit guard shape whose accounting was not
// atomic. Run under ASan and TSan via scripts/check.sh --parallel.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "exec/engine.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "golden_queries.h"
#include "query_test_util.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

using Canon = std::vector<std::vector<std::string>>;

// Worker counts the determinism matrix sweeps. 1 is the serial baseline
// itself (the Parallelize pass never runs); 8 exceeds the morsel count
// of every toy/example table, so some workers always claim nothing.
const int kWorkerMatrix[] = {2, 4, 8};

Database* ExampleDb() {
  static Database* db = [] {
    auto* d = new Database();
    BuildExampleDb(d);
    return d;
  }();
  return db;
}

Database* ToyDb() {
  static Database* db = [] {
    auto* d = new Database();
    BuildToyDatabase(d, 7, 200);
    return d;
  }();
  return db;
}

Database* TpcdDb() {
  static Database* db = [] {
    auto* d = new Database();
    TpcdConfig config;
    config.scale_factor = 0.001;
    Status st = LoadTpcd(d, config);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return d;
  }();
  return db;
}

// Runs `sql` serially and at every worker count in the matrix, with
// runtime order verification on everywhere, and asserts the parallel row
// *sequences* are identical to the serial one.
void ExpectParallelIdentical(Database* db, const std::string& name,
                             const std::string& sql,
                             OptimizerConfig config) {
  SCOPED_TRACE(name + ": " + sql);
  config.verify_orders = true;

  OptimizerConfig serial_config = config;
  serial_config.parallel_workers = 1;
  QueryEngine serial(db, serial_config);
  auto serial_run = serial.Run(sql);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();

  for (int workers : kWorkerMatrix) {
    SCOPED_TRACE(StrFormat("parallel_workers=%d", workers));
    OptimizerConfig parallel_config = config;
    parallel_config.parallel_workers = workers;
    QueryEngine engine(db, parallel_config);
    auto run = engine.Run(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().rows, serial_run.value().rows)
        << "parallel row sequence diverged from serial; plan:\n"
        << run.value().plan_text;
    EXPECT_EQ(run.value().column_names, serial_run.value().column_names);
  }
}

// Spill files this process has left in `dir` (pid prefix keeps
// concurrent test binaries from seeing each other's files).
int SpillFilesIn(const std::string& dir) {
  std::string prefix = "ordopt-spill-" + std::to_string(::getpid()) + "-";
  int count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

// Saves/restores ORDOPT_TMPDIR (scripts/check.sh points it at a private
// leak-check directory; tests that re-point it must put it back).
class ScopedTmpdirEnv {
 public:
  explicit ScopedTmpdirEnv(const std::string& value) {
    const char* prev = std::getenv("ORDOPT_TMPDIR");
    if (prev != nullptr) saved_ = prev;
    had_prev_ = prev != nullptr;
    ::setenv("ORDOPT_TMPDIR", value.c_str(), 1);
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

// ---- Row-sequence identity over the golden query corpus ----------------

TEST(ParallelDeterminism, ExampleCasesRowIdentical) {
  for (const GoldenCase& c : ExampleCases()) {
    ExpectParallelIdentical(ExampleDb(), c.name, c.sql, c.config);
  }
}

TEST(ParallelDeterminism, TpcdCasesRowIdentical) {
  for (const GoldenCase& c : TpcdCases()) {
    ExpectParallelIdentical(TpcdDb(), c.name, c.sql, c.config);
  }
}

// The toy schema adds index-nested-loop chains over secondary indexes
// (emp_dno, task_eno) that the example tables don't have.
TEST(ParallelDeterminism, ToySchemaRowIdentical) {
  const char* queries[] = {
      "select e.eno, e.salary from emp e order by e.salary, e.eno",
      "select e.dno, sum(e.salary) as s from emp e group by e.dno "
      "order by e.dno",
      "select d.dname, e.eno from dept d, emp e where d.dno = e.dno "
      "order by d.dno, e.eno",
      "select t.tno, e.salary from emp e, task t where e.eno = t.eno "
      "and e.salary > 40 order by e.eno, t.tno",
      "select distinct e.age from emp e order by e.age desc",
  };
  for (const char* sql : queries) {
    ExpectParallelIdentical(ToyDb(), "toy", sql, OptimizerConfig());
    ExpectParallelIdentical(ToyDb(), "toy/db2", sql, Db2Config());
  }
}

// ---- Adversarial per-worker batch sizes --------------------------------

// Exchange workers inherit the configured batch size, so batch_rows 1 /
// 3 / 1024 drive the merge through degenerate single-row batches, odd
// fragmentation, and full batches. Every combination must reproduce the
// serial default-batch row sequence exactly.
TEST(ParallelDeterminism, AdversarialBatchSizes) {
  const char* queries[] = {
      "select e.eno, e.salary from emp e order by e.salary, e.eno",
      "select e.eno from emp e where e.salary > 30 order by e.eno",
      "select d.dno, d.budget from dept d order by d.budget desc, d.dno",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    QueryEngine serial(ToyDb(), OptimizerConfig());
    auto serial_run = serial.Run(sql);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();

    for (int64_t batch_rows : {int64_t{1}, int64_t{3}, int64_t{1024}}) {
      for (int workers : kWorkerMatrix) {
        SCOPED_TRACE(StrFormat("batch_rows=%lld workers=%d",
                               static_cast<long long>(batch_rows), workers));
        OptimizerConfig config;
        config.batch_rows = batch_rows;
        config.parallel_workers = workers;
        config.verify_orders = true;
        QueryEngine engine(ToyDb(), config);
        auto run = engine.Run(sql);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_EQ(run.value().rows, serial_run.value().rows)
            << "plan:\n" << run.value().plan_text;
      }
    }
  }
}

// ---- Edge cases: empty partitions, single morsel, tiny tables ----------

TEST(ParallelDeterminism, EmptyResultAndSingleMorsel) {
  // dept has 12 rows — one morsel; at 8 workers, 7 claim nothing.
  ExpectParallelIdentical(ToyDb(), "single-morsel",
                          "select d.dno, d.dname from dept d order by d.dno",
                          OptimizerConfig());
  // Filter eliminates every row: each worker's stream is empty and the
  // merge must terminate cleanly with zero rows.
  ExpectParallelIdentical(
      ToyDb(), "empty-result",
      "select e.eno from emp e where e.salary > 1000000 order by e.eno",
      OptimizerConfig());
  // Exactly-one-row stream through the merge.
  ExpectParallelIdentical(ToyDb(), "one-row",
                          "select d.dno from dept d where d.dno = 3",
                          OptimizerConfig());
}

// ---- Plan shape and the knob-off byte-identity claim -------------------

TEST(ParallelPlanShape, ExchangeInPlanAndSerialUnchanged) {
  const char* sql = "select e.eno, e.salary from emp e order by e.salary";
  OptimizerConfig parallel_config;
  parallel_config.parallel_workers = 4;
  QueryEngine parallel(ToyDb(), parallel_config);
  auto run = parallel.Run(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(run.value().plan_text.find("Exchange(merge"), std::string::npos)
      << run.value().plan_text;
  EXPECT_GE(run.value().metrics.parallel_workers, 4);
  EXPECT_GT(run.value().metrics.exchange_batches, 0);
  EXPECT_GT(run.value().metrics.worker_busy_ns_total, 0);

  // parallel_workers=1 must leave the plan and execution untouched: same
  // plan text as the default config, no exchange, no parallel metrics.
  OptimizerConfig serial_config;
  serial_config.parallel_workers = 1;
  QueryEngine serial(ToyDb(), serial_config);
  auto serial_run = serial.Run(sql);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
  QueryEngine vanilla(ToyDb(), OptimizerConfig());
  auto vanilla_run = vanilla.Run(sql);
  ASSERT_TRUE(vanilla_run.ok()) << vanilla_run.status().ToString();
  EXPECT_EQ(serial_run.value().plan_text, vanilla_run.value().plan_text);
  EXPECT_EQ(serial_run.value().plan_text.find("Exchange"), std::string::npos);
  EXPECT_EQ(serial_run.value().rows, vanilla_run.value().rows);
  EXPECT_EQ(serial_run.value().metrics.exchange_batches, 0);
}

// EXPLAIN ANALYZE: an exchange's children carry stats summed over every
// worker, so "total minus children" would always print self=0. Its self
// time is its own consumer-thread time, i.e. equal to its total time.
TEST(ParallelPlanShape, ExchangeSelfTimeIsItsOwnTime) {
  OptimizerConfig config;
  config.parallel_workers = 4;
  QueryEngine engine(ToyDb(), config);
  auto run =
      engine.RunAnalyzed("select e.eno, e.salary from emp e order by e.salary");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& text = run.value().analyzed_plan_text;
  const size_t line_start = text.find("Exchange(");
  ASSERT_NE(line_start, std::string::npos) << text;
  const std::string line =
      text.substr(line_start, text.find('\n', line_start) - line_start);
  auto field = [&line](const std::string& name) {
    const size_t at = line.find(" " + name + "=");
    EXPECT_NE(at, std::string::npos) << line;
    const size_t begin = at + name.size() + 2;
    return line.substr(begin, line.find(' ', begin) - begin);
  };
  EXPECT_EQ(field("self"), field("time")) << line;
  EXPECT_NE(field("time"), "0.000ms") << line;
}

// ---- Merge ablation: union exchange + re-sort --------------------------

// With parallel_merge_exchange off, a sorted chain parallelizes through
// the *unordered* union exchange and the planner re-sorts above it
// ("exchange.resort"). The multiset must still match; with a unique sort
// key the re-sort fully determines the order, so the sequence must too.
TEST(ParallelMergeAblation, UnionExchangeWithResort) {
  OptimizerConfig config;
  config.parallel_workers = 4;
  config.parallel_merge_exchange = false;
  config.verify_orders = true;

  // b.x is unique: re-sorted output is deterministic, compare sequences.
  {
    const char* sql = "select x, y from b order by x";
    QueryEngine serial(ExampleDb(), OptimizerConfig());
    auto serial_run = serial.Run(sql);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
    QueryEngine engine(ExampleDb(), config);
    auto run = engine.Run(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().rows, serial_run.value().rows)
        << "plan:\n" << run.value().plan_text;
  }
  // a.x is not unique: tie order within the re-sort depends on worker
  // arrival, so only the multiset is pinned (verify_orders still checks
  // the claimed order property holds).
  {
    const char* sql = "select x, y from a order by x";
    QueryEngine serial(ExampleDb(), OptimizerConfig());
    auto serial_run = serial.Run(sql);
    ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
    QueryEngine engine(ExampleDb(), config);
    auto run = engine.Run(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(Canonicalize(run.value().rows),
              Canonicalize(serial_run.value().rows))
        << "plan:\n" << run.value().plan_text;
  }
}

// ---- Fault injection: one worker's failure cancels the query -----------

class ParallelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// Arms each parallel fault site at several depths and runs a spilling
// parallel sort. Exactly one worker absorbs the injected failure; the
// whole query must fail with a clean Status naming the site, the shared
// memory budget must drain to zero while the guard is still alive (no
// dtor backstop credit), and no spill file may survive in the private
// temp directory.
TEST_F(ParallelFaultTest, WorkerFailureCancelsQueryCleanly) {
  std::string dir = ::testing::TempDir() + "ordopt-parallel-fault";
  std::filesystem::create_directories(dir);
  ScopedTmpdirEnv env(dir);

  // Workers sort ~50 rows each against an 8-row budget: several spilled
  // runs per worker, so failures land while run files exist.
  // Small batches keep both probes hot: every morsel claim and every
  // 16-row merge step is a hit, so fire_after=3 lands mid-stream.
  OptimizerConfig config;
  config.parallel_workers = 4;
  config.cost_params.sort_memory_rows = 8;
  config.batch_rows = 16;
  const char* sql = "select e.eno, e.salary from emp e order by e.salary";

  const char* kSites[] = {"exec.parallel.morsel", "exec.exchange.merge"};
  for (const char* site : kSites) {
    for (int64_t fire_after : {int64_t{0}, int64_t{3}}) {
      SCOPED_TRACE(StrFormat("%s:%lld", site,
                             static_cast<long long>(fire_after)));
      FaultInjector::Global().Arm(site, fire_after, /*fire_count=*/1);
      SharedMemoryBudget budget(64 << 20);
      QueryGuard guard;
      guard.set_shared_budget(&budget);
      QueryEngine engine(ToyDb(), config);
      auto run = engine.Run(sql, &guard);
      ASSERT_FALSE(run.ok()) << "armed " << site << " but the query passed";
      EXPECT_NE(run.status().message().find(site), std::string::npos)
          << "failure does not name the site: " << run.status().ToString();
      EXPECT_EQ(FaultInjector::Global().FireCount(site), 1);
      EXPECT_EQ(budget.used_bytes(), 0)
          << "worker teardown leaked shared-budget charge";
      EXPECT_EQ(SpillFilesIn(dir), 0) << "leaked spill files";
      FaultInjector::Global().DisarmAll();
    }
  }

  // Disarmed, the same spilling parallel query matches serial exactly.
  QueryEngine serial(ToyDb(), OptimizerConfig());
  auto serial_run = serial.Run(sql);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
  QueryEngine engine(ToyDb(), config);
  auto run = engine.Run(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().rows, serial_run.value().rows);
  EXPECT_EQ(SpillFilesIn(dir), 0);
}

// A fault that fires on *every* hit from its arming point: all workers
// race into the failure, exactly the armed window fires, and the query
// still dies exactly once with a clean status.
TEST_F(ParallelFaultTest, PersistentFaultStillDrainsCleanly) {
  std::string dir = ::testing::TempDir() + "ordopt-parallel-fault-persist";
  std::filesystem::create_directories(dir);
  ScopedTmpdirEnv env(dir);

  OptimizerConfig config;
  config.parallel_workers = 4;
  config.cost_params.sort_memory_rows = 8;
  FaultInjector::Global().Arm("exec.parallel.morsel", 1, /*fire_count=*/-1);
  SharedMemoryBudget budget(64 << 20);
  QueryGuard guard;
  guard.set_shared_budget(&budget);
  QueryEngine engine(ToyDb(), config);
  auto run = engine.Run(
      "select e.eno, e.salary from emp e order by e.salary", &guard);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("exec.parallel.morsel"),
            std::string::npos)
      << run.status().ToString();
  EXPECT_EQ(budget.used_bytes(), 0);
  EXPECT_EQ(SpillFilesIn(dir), 0);
}

// ---- QueryGuard thread-safety regression (tsan) ------------------------

// 8 threads hammer one guard's accounting the way exchange workers do.
// Under tsan this test fails on the pre-audit guard shape (plain int64
// counters); on the atomic shape it must both race-free *and* keep exact
// totals — fetch_add-based accounting may not drop updates.
TEST(GuardThreadSafety, ConcurrentAccountingKeepsExactTotals) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 4000;
  QueryGuard guard;
  SharedMemoryBudget budget(1 << 30);
  guard.set_shared_budget(&budget);
  guard.Arm();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&guard] {
      for (int i = 0; i < kIterations; ++i) {
        EXPECT_TRUE(guard.OnRowScanned());
        EXPECT_TRUE(guard.OnRowsBuffered(1, 64));
        if (i % 16 == 0) guard.ForceCheck();
        guard.OnBufferReleased(1, 64);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
  EXPECT_EQ(guard.rows_scanned(), int64_t{kThreads} * kIterations);
  EXPECT_EQ(guard.buffered_rows(), 0);
  EXPECT_GE(guard.buffered_rows_peak(), 1);
  EXPECT_EQ(budget.used_bytes(), 0);
}

// Workers of one query race to poison its guard; exactly one must win
// and the latched status must never change afterwards.
TEST(GuardThreadSafety, ConcurrentPoisonFirstWins) {
  QueryGuard guard;
  std::atomic<int> ready{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&guard, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      guard.Poison(Status::Internal(StrFormat("worker %d failed", t)));
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(guard.ok());
  Status first = guard.status();
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.message().find("worker "), std::string::npos);
  // Later poisons are dropped: the latch is stable.
  guard.Poison(Status::Internal("late poison"));
  EXPECT_EQ(guard.status().message(), first.message());
}

}  // namespace
}  // namespace ordopt
