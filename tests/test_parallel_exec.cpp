// Parallel-determinism battery for morsel-parallel execution
// (src/exec/parallel/). The tentpole claim is *exact* determinism, not
// mere multiset equality: monotone morsel claims give every worker a
// provenance-ascending stream, provenance values partition across
// workers, and the order-preserving merge exchange recombines the
// streams on (sort spec, provenance) — so a parallel run's row sequence
// is byte-identical to the serial run's, at any worker count and any
// batch size. The battery pins that down over every golden query
// (examples + TPC-D) at 1/2/4/8 workers, under adversarial per-worker
// batch sizes (1, 3, 1024; and 1, 3, 1000, 1024 over multi-morsel TPC-D
// streams, with and without a Sort inside the chain), with group-bys that
// aggregate in the workers (partial states merged above the exchange) and
// ones that must not, at empty-result and
// single-morsel edge cases, with runtime order verification on for the
// whole matrix, over clustered index scans that claim rid ranges directly
// (and the predicate/reverse scans that must not), and
// under injected faults at the two parallel sites (one worker failing
// must cancel the whole query cleanly: clean Status naming the site,
// shared budget drained to zero, no leaked spill files). A final tsan
// regression hammers one QueryGuard from 8 threads — this test fails
// under tsan on the pre-audit guard shape whose accounting was not
// atomic. Run under ASan and TSan via scripts/check.sh --parallel.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "exec/engine.h"
#include "exec/operators.h"
#include "exec/parallel/morsel.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "golden_queries.h"
#include "qgm/predicate.h"
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

// ---- Multi-morsel merges at odd batch sizes -----------------------------

// SF 0.002: lineitem spans about 12 morsels, so every worker claims several
// and the merge resequences interleaved multi-morsel streams.
Database* TpcdMultiMorselDb() {
  static Database* db = [] {
    auto* d = new Database();
    TpcdConfig config;
    config.scale_factor = 0.002;
    Status st = LoadTpcd(d, config);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return d;
  }();
  return db;
}

// A hash-off query whose chain keeps its Sort: each worker sorts its
// morsels, so worker runs interleave row by row and the merge's run search
// must split head batches exactly.
const char kSortInChainQuery[] =
    "select l_orderkey, l_linenumber, l_extendedprice from lineitem "
    "where l_shipdate > date('1995-01-01') "
    "order by l_extendedprice, l_orderkey, l_linenumber";

// Runs `sql` under `config` serially at the default batch size, then at
// every batch size in {1, 3, 1000, 1024} and worker count in the matrix,
// and asserts each parallel row sequence equals the serial one. Returns
// the largest exchange batch count seen, so callers can check the merge
// really saw multi-morsel streams.
int64_t ExpectBatchMatrixIdentical(const std::string& name,
                                   const std::string& sql,
                                   OptimizerConfig config) {
  SCOPED_TRACE(name + ": " + sql);
  config.verify_orders = true;
  OptimizerConfig serial_config = config;
  serial_config.parallel_workers = 1;
  QueryEngine serial(TpcdMultiMorselDb(), serial_config);
  auto serial_run = serial.Run(sql);
  EXPECT_TRUE(serial_run.ok()) << serial_run.status().ToString();
  if (!serial_run.ok()) return 0;
  int64_t max_batches = 0;
  for (int64_t batch_rows : {int64_t{1}, int64_t{3}, int64_t{1000},
                             int64_t{1024}}) {
    for (int workers : kWorkerMatrix) {
      SCOPED_TRACE(StrFormat("batch_rows=%lld workers=%d",
                             static_cast<long long>(batch_rows), workers));
      OptimizerConfig parallel_config = config;
      parallel_config.batch_rows = batch_rows;
      parallel_config.parallel_workers = workers;
      QueryEngine engine(TpcdMultiMorselDb(), parallel_config);
      auto run = engine.Run(sql);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (!run.ok()) continue;
      EXPECT_EQ(run.value().rows, serial_run.value().rows)
          << "plan:\n" << run.value().plan_text;
      max_batches = std::max(max_batches, run.value().metrics.exchange_batches);
    }
  }
  return max_batches;
}

struct NamedQuery {
  const char* name;
  const char* sql;
};

const NamedQuery kTpcdQueries[] = {
    {"q3", tpcd_queries::kQuery3},
    {"pricing", tpcd_queries::kPricingSummary},
    {"distinct_shipdates", tpcd_queries::kDistinctShipdates},
    {"late_orders", tpcd_queries::kLateOrders},
    {"region_revenue", tpcd_queries::kRegionRevenue},
};

TEST(ParallelDeterminism, MultiMorselBatchMatrix) {
  for (const NamedQuery& q : kTpcdQueries) {
    ExpectBatchMatrixIdentical(std::string("hash/") + q.name, q.sql,
                               DefaultConfig());
    ExpectBatchMatrixIdentical(std::string("db2/") + q.name, q.sql,
                               Db2Config());
  }
}

TEST(ParallelDeterminism, MultiMorselSortInChain) {
  OptimizerConfig parallel_config = Db2Config();
  parallel_config.parallel_workers = 4;
  QueryEngine engine(TpcdMultiMorselDb(), parallel_config);
  auto run = engine.Run(kSortInChainQuery);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& plan = run.value().plan_text;
  const size_t exchange = plan.find("Exchange(merge");
  ASSERT_NE(exchange, std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort", exchange), std::string::npos)
      << "the Sort must run inside the exchange's chain:\n" << plan;
  EXPECT_GT(ExpectBatchMatrixIdentical("sort-in-chain", kSortInChainQuery,
                                       Db2Config()),
            12);
}

// ---- Partial aggregation below the exchange -----------------------------

// A hash group-by directly over a chain aggregates in the workers: each
// worker's partial group-by emits one row per group with its partial
// states and first-row provenance, and the final group-by above the merge
// exchange folds them. `partial` says whether the query must plan that
// split (DISTINCT aggregates and MIN/MAX over doubles stay above).
struct PartialAggQuery {
  const char* name;
  const char* sql;
  bool partial;
};

const PartialAggQuery kPartialAggQueries[] = {
    {"pricing", tpcd_queries::kPricingSummary, true},
    // l_quantity / (l_linenumber - 1) is NULL on every first line item.
    {"count over nulls",
     "select l_linestatus, count(l_quantity / (l_linenumber - 1)) as c, "
     "count(*) as n from lineitem group by l_linestatus",
     true},
    {"min/max strings and dates",
     "select l_linenumber, min(l_shipdate) as lo, max(l_shipdate) as hi, "
     "min(l_returnflag) as f, max(l_linestatus) as s from lineitem "
     "group by l_linenumber",
     true},
    {"avg over ints",
     "select l_returnflag, avg(l_quantity) as q, avg(l_linenumber) as n, "
     "sum(l_quantity) as s from lineitem group by l_returnflag",
     true},
    {"having",
     "select l_linenumber, sum(l_extendedprice) as s, count(*) as n "
     "from lineitem where l_discount > 0.02 group by l_linenumber "
     "having count(*) > 1500",
     true},
    {"empty input",
     "select l_returnflag, sum(l_extendedprice) as s, count(*) as n, "
     "min(l_shipdate) as d from lineitem "
     "where l_quantity > l_linenumber + 100 group by l_returnflag",
     true},
    {"distinct aggregate",
     "select l_returnflag, count(distinct l_linenumber) as n, "
     "sum(l_quantity) as s from lineitem group by l_returnflag",
     false},
    {"max over doubles",
     "select l_linestatus, max(l_discount) as d from lineitem "
     "group by l_linestatus",
     false},
};

// Rows identical to serial at 2/4/8 workers x batch 1/3/1000/1024 with
// order verification on, and the planned split as listed.
TEST(ParallelDeterminism, PartialAggregationMatrix) {
  for (const PartialAggQuery& q : kPartialAggQueries) {
    SCOPED_TRACE(q.name);
    OptimizerConfig config = DefaultConfig();
    config.parallel_workers = 4;
    config.trace_level = TraceLevel::kOptimizer;
    QueryEngine engine(TpcdMultiMorselDb(), config);
    auto run = engine.RunAnalyzed(q.sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::string& text = run.value().analyzed_plan_text;
    EXPECT_EQ(text.find("HashGroupBy(partial)") != std::string::npos,
              q.partial)
        << text;
    EXPECT_NE(text.find(q.partial ? "site=exchange.partial_agg pushed=true"
                                  : "site=exchange.partial_agg pushed=false "
                                    "reason="),
              std::string::npos)
        << text;
    ExpectBatchMatrixIdentical(q.name, q.sql, DefaultConfig());
  }
}

// ---- Clustered index scans under morsels -------------------------------

// A clustered table whose index key (k, d DESC) has duplicate keys, NULL k
// values, and a descending column; 3000 rows (three morsels) inserted in
// a scrambled order so the clustering sort is observable.
Database* ClusteredDb() {
  static Database* db = [] {
    auto* d = new Database();
    TableDef def;
    def.name = "c";
    def.columns = {{"k", DataType::kInt64},
                   {"d", DataType::kInt64},
                   {"v", DataType::kInt64}};
    def.AddIndex("c_kd", {"k", "d"}, /*unique=*/false, /*clustered=*/true);
    def.indexes.back().directions[1] = SortDirection::kDescending;
    Table* t = d->CreateTable(std::move(def)).value();
    for (int64_t i = 0; i < 3000; ++i) {
      const int64_t x = (i * 7919) % 3000;  // a permutation of 0..2999
      EXPECT_TRUE(t->AppendRow({x % 7 == 0 ? Value::Null() : Value::Int(x % 50),
                                Value::Int((x / 50) % 3), Value::Int(x)})
                      .ok());
    }
    EXPECT_TRUE(d->FinalizeAll().ok());
    return d;
  }();
  return db;
}

// The premise of the clustered morsel rule: a full forward walk of a
// clustered index visits rids 0..N-1 in order.
void ExpectClusteredWalkIsRidOrder(const Table& table) {
  for (size_t i = 0; i < table.def().indexes.size(); ++i) {
    if (!table.def().indexes[i].clustered) continue;
    SCOPED_TRACE(table.name() + "." + table.def().indexes[i].name);
    int64_t expected = 0;
    for (auto c = table.index(i)->SeekFirst(); c.Valid(); c.Next()) {
      ASSERT_EQ(c.rid(), expected);
      ++expected;
    }
    EXPECT_EQ(expected, table.row_count());
  }
}

TEST(ClusteredMorsels, ForwardWalkIsRidOrder) {
  ASSERT_TRUE(
      TpcdMultiMorselDb()->GetTable("lineitem")->def().indexes[0].clustered);
  for (const auto& [name, table] : TpcdMultiMorselDb()->tables()) {
    ExpectClusteredWalkIsRidOrder(*table);
  }
  ExpectClusteredWalkIsRidOrder(*ClusteredDb()->GetTable("c"));
}

Predicate ColumnPredicate(int column, BinOp op, int64_t bound) {
  return ClassifyPredicate(BoundExpr::Binary(
      op, BoundExpr::Column({0, column}, DataType::kInt64, "c"),
      BoundExpr::Literal(Value::Int(bound)), DataType::kInt64));
}

// Drains `scan`; with `provenance`, checks that the trailing provenance
// column reads 0, 1, 2, ... and strips it.
std::vector<Row> DrainScan(ScanOp* scan, bool provenance) {
  scan->Open();
  std::vector<Row> rows;
  RowBatch batch;
  while (scan->NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.size(); ++i) {
      Row row = batch.TakeRow(i);
      if (provenance) {
        EXPECT_EQ(row.back().AsInt(), static_cast<int64_t>(rows.size()));
        row.pop_back();
      }
      rows.push_back(std::move(row));
    }
  }
  scan->Close();
  return rows;
}

// Drives ScanOp's index walks directly, in morsel mode with a private
// scheduler and serially (no scheduler) at batch 1 and 3, with and
// without column pruning. In morsel mode only the full forward walk claims
// rid ranges without the shared rid vector; predicate and reverse scans
// still materialize it. Either way the scan emits the qualifying rows in
// index-walk order — for a clustered index, ascending rid order
// (descending for a reverse walk) — with provenance 0, 1, 2, ... Serially,
// the full forward walk reads exactly what the heap scan of the table
// reads: the same rows, rows_scanned and seq/random pages.
TEST(ClusteredMorsels, OnlyFullForwardWalksSkipTheSharedRidVector) {
  const Table& table = *ClusteredDb()->GetTable("c");
  struct Case {
    const char* name;
    bool reverse;
    std::vector<Predicate> preds;
    bool shared_rids;
  };
  const Case cases[] = {
      {"full forward", false, {}, false},
      {"reverse", true, {}, true},
      {"k = 3", false, {ColumnPredicate(0, BinOp::kEq, 3)}, true},
      {"k > 40", false, {ColumnPredicate(0, BinOp::kGt, 40)}, true},
      {"k < 10", false, {ColumnPredicate(0, BinOp::kLt, 10)}, true},
      {"k = 3 and d > 0",
       false,
       {ColumnPredicate(0, BinOp::kEq, 3), ColumnPredicate(1, BinOp::kGt, 0)},
       true},
      {"k = 3 and d <= 1",
       false,
       {ColumnPredicate(0, BinOp::kEq, 3), ColumnPredicate(1, BinOp::kLe, 1)},
       true},
  };
  const ColumnSet kv{{0, 0}, {0, 2}};  // the pruned scans emit k and v
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Row> expected;
    for (int64_t rid = 0; rid < table.row_count(); ++rid) {
      const Row& row = table.row(rid);
      bool keep = true;
      for (const Predicate& p : c.preds) {
        const Value& v = row[static_cast<size_t>(p.left_col.column)];
        const int cmp = v.is_null() ? 0 : v.Compare(p.constant);
        keep = keep && !v.is_null() &&
               (p.cmp == BinOp::kEq   ? cmp == 0
                : p.cmp == BinOp::kGt ? cmp > 0
                : p.cmp == BinOp::kLt ? cmp < 0
                                      : cmp <= 0);
      }
      if (keep) expected.push_back(row);
    }
    if (c.reverse) std::reverse(expected.begin(), expected.end());

    RuntimeMetrics metrics;
    MorselScheduler morsels;
    ExecContext ctx(&metrics);
    ctx.morsels = &morsels;
    ScanOp scan(table, 0, 0, c.reverse, c.preds, ctx,
                /*required_columns=*/nullptr, /*morsel_driver=*/true,
                /*emit_provenance=*/true);
    EXPECT_EQ(DrainScan(&scan, /*provenance=*/true), expected);
    EXPECT_EQ(metrics.rows_scanned, static_cast<int64_t>(expected.size()));
    // EnsureRids runs its walk only if no scan materialized the vector.
    bool walked_here = false;
    morsels.EnsureRids([&](std::vector<int64_t>*) { walked_here = true; });
    EXPECT_EQ(!walked_here, c.shared_rids);

    for (int64_t batch_rows : {1, 3}) {
      for (bool prune : {false, true}) {
        SCOPED_TRACE("serial, batch_rows=" + std::to_string(batch_rows) +
                     (prune ? ", pruned" : ""));
        std::vector<Row> want = expected;
        if (prune) {
          for (Row& row : want) row = {row[0], row[2]};
        }
        const ColumnSet* required = prune ? &kv : nullptr;
        RuntimeMetrics m;
        ExecContext sctx(&m);
        sctx.batch_rows = batch_rows;
        ScanOp serial(table, 0, 0, c.reverse, c.preds, sctx, required);
        EXPECT_EQ(DrainScan(&serial, /*provenance=*/false), want);
        EXPECT_EQ(m.rows_scanned, static_cast<int64_t>(expected.size()));
        if (c.shared_rids) continue;
        RuntimeMetrics hm;
        ExecContext hctx(&hm);
        hctx.batch_rows = batch_rows;
        ScanOp heap(table, 0, ScanOp::kHeap, false, {}, hctx, required);
        EXPECT_EQ(DrainScan(&heap, /*provenance=*/false), want);
        EXPECT_EQ(hm.rows_scanned, m.rows_scanned);
        EXPECT_EQ(hm.seq_pages, m.seq_pages);
        EXPECT_EQ(hm.random_pages, m.random_pages);
      }
    }
  }
}

// The same scans planned and run end to end: full, range and reverse
// clustered IndexScans stay row-identical to serial at 2/4/8 workers.
TEST(ClusteredMorsels, ClusteredScansRowIdentical) {
  struct Query {
    const char* sql;
    const char* scan;  // expected IndexScan label fragment
  };
  const Query queries[] = {
      {"select k, d, v from c order by k, d desc", "IndexScan(c.c_kd clustered)"},
      {"select k, d, v from c order by k desc, d",
       "IndexScan(c.c_kd reverse clustered)"},
      {"select k, d, v from c where k = 3 order by d desc", "range[(c.k = 3)]"},
      {"select k, d, v from c where k > 40 order by k, d desc",
       "range[(c.k > 40)]"},
      {"select k, d, v from c where k < 10 order by k, d desc",
       "range[(c.k < 10)]"},
      {"select k, d, v from c where k = 3 and d > 0 order by d desc",
       "range[(c.k = 3) AND (c.d > 0)]"},
  };
  for (const Query& q : queries) {
    OptimizerConfig config = Db2Config();
    config.parallel_workers = 4;
    QueryEngine engine(ClusteredDb(), config);
    auto run = engine.Run(q.sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_NE(run.value().plan_text.find(q.scan), std::string::npos)
        << run.value().plan_text;
    EXPECT_FALSE(run.value().rows.empty()) << q.sql;
    ExpectParallelIdentical(ClusteredDb(), "clustered", q.sql, Db2Config());
  }
}

// A NULL group key and COUNT over NULL values, on a three-morsel table
// whose key k is NULL on every seventh row.
TEST(ParallelDeterminism, PartialAggregationNullKeys) {
  ExpectParallelIdentical(
      ClusteredDb(), "null group key",
      "select k, count(k) as ck, count(*) as n, sum(v) as s, min(v) as lo, "
      "max(d) as hi, avg(v) as a from c group by k",
      DefaultConfig());
  ExpectParallelIdentical(ClusteredDb(), "global aggregate",
                          "select count(k) as ck, sum(v) as s from c",
                          DefaultConfig());
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

// ---- Batched scan charges ------------------------------------------------

// A scan limit on a multi-morsel table: serially the tripping row is the
// 51st, at 4 workers each worker counts at most its own tripping row, and
// on both paths the guard's count equals the merged rows_scanned metric.
TEST(ParallelGuard, ScanLimitCountsMatchTheMetric) {
  const char* sql =
      "select l_orderkey, l_linenumber from lineitem "
      "order by l_orderkey, l_linenumber";
  for (int workers : {1, 4}) {
    SCOPED_TRACE(StrFormat("parallel_workers=%d", workers));
    OptimizerConfig config;
    config.parallel_workers = workers;
    QueryEngine engine(TpcdDb(), config);
    QueryLimits limits;
    limits.max_rows_scanned = 50;
    QueryGuard guard(limits);
    auto run = engine.Run(sql, &guard);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
        << run.status().ToString();
    EXPECT_EQ(guard.rows_scanned(), engine.last_metrics().rows_scanned);
    if (workers == 1) {
      EXPECT_EQ(guard.rows_scanned(), 51);
    } else {
      EXPECT_GT(guard.rows_scanned(), 50);
      EXPECT_LE(guard.rows_scanned(), 50 + workers);
    }
  }
}

// ---- Arithmetic errors --------------------------------------------------

// int64 +, - and * that overflow fail the query with OutOfRange instead of
// wrapping, in a projection and in a predicate the workers evaluate, both
// serially and at 4 workers; a result of exactly INT64_MIN stays legal.
TEST(ParallelErrors, IntegerOverflowFailsTheQuery) {
  const char* const failing[] = {
      "select 9223372036854775807 + 1 from region",
      "select r_regionkey * 4611686018427387904 from region "
      "where r_regionkey = 2",
      "select r_name from region "
      "where r_regionkey - 9223372036854775807 - 2 < 0",
  };
  const char* const legal =
      "select r_regionkey * -4611686018427387904, -9223372036854775807 - 1 "
      "from region where r_regionkey = 2";
  for (int workers : {1, 4}) {
    SCOPED_TRACE(StrFormat("parallel_workers=%d", workers));
    OptimizerConfig config;
    config.parallel_workers = workers;
    QueryEngine engine(TpcdDb(), config);
    for (const char* sql : failing) {
      SCOPED_TRACE(sql);
      auto run = engine.Run(sql);
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kOutOfRange)
          << run.status().ToString();
      EXPECT_NE(run.status().message().find("overflow"), std::string::npos)
          << run.status().ToString();
    }
    auto run = engine.Run(legal);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run.value().rows.size(), 1u);
    const Value kMin = Value::Int(std::numeric_limits<int64_t>::min());
    EXPECT_EQ(run.value().rows[0], (Row{kMin, kMin}));
  }
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

// EXPLAIN ANALYZE prints the consumer's blocking waits on worker queues as
// wait= on each Exchange line. The waits happen inside the exchange's own
// NextBatch calls, so wait never exceeds self.
TEST(ParallelPlanShape, ExchangeWaitWithinSelf) {
  for (const NamedQuery& q : kTpcdQueries) {
    for (OptimizerConfig config : {DefaultConfig(), Db2Config()}) {
      SCOPED_TRACE(q.name);
      config.parallel_workers = 4;
      QueryEngine engine(TpcdMultiMorselDb(), config);
      auto run = engine.RunAnalyzed(q.sql);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const std::string& text = run.value().analyzed_plan_text;
      int exchanges = 0;
      for (size_t at = text.find("Exchange("); at != std::string::npos;
           at = text.find("Exchange(", at + 1)) {
        const std::string line = text.substr(at, text.find('\n', at) - at);
        auto ms = [&line](const std::string& name) {
          const size_t pos = line.find(" " + name + "=");
          EXPECT_NE(pos, std::string::npos) << line;
          return pos == std::string::npos
                     ? -1.0
                     : std::atof(line.c_str() + pos + name.size() + 2);
        };
        EXPECT_LE(ms("wait"), ms("self")) << line;
        EXPECT_GE(ms("wait"), 0.0) << line;
        ++exchanges;
      }
      EXPECT_GT(exchanges, 0) << text;
    }
  }
}

// Pricing at 4 workers splits its group-by around the exchange, which then
// carries at most one row per group per worker instead of every qualifying
// line item.
TEST(ParallelPlanShape, PricingAggregatesBelowTheExchange) {
  OptimizerConfig config = DefaultConfig();
  config.parallel_workers = 4;
  QueryEngine engine(TpcdMultiMorselDb(), config);
  auto run = engine.RunAnalyzed(tpcd_queries::kPricingSummary);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& text = run.value().analyzed_plan_text;
  const size_t final_at = text.find("HashGroupBy(final)");
  const size_t exchange_at = text.find("Exchange(merge, 4 workers)");
  const size_t partial_at = text.find("HashGroupBy(partial)");
  ASSERT_NE(final_at, std::string::npos) << text;
  ASSERT_NE(exchange_at, std::string::npos) << text;
  ASSERT_NE(partial_at, std::string::npos) << text;
  EXPECT_LT(final_at, exchange_at);
  EXPECT_LT(exchange_at, partial_at);
  const int64_t groups = static_cast<int64_t>(run.value().rows.size());
  ASSERT_EQ(groups, 6);
  int64_t exchange_rows = -1;
  int64_t scanned = 0;
  for (const OperatorProfile& p : run.value().op_profile) {
    if (p.node->kind == OpKind::kExchange) exchange_rows = p.stats.rows_out;
    if (p.node->kind == OpKind::kIndexScan ||
        p.node->kind == OpKind::kTableScan) {
      scanned += p.stats.rows_out;
    }
  }
  EXPECT_GE(exchange_rows, groups);
  EXPECT_LE(exchange_rows, 4 * groups);
  EXPECT_GT(scanned, 10 * 4 * groups);
}

// The split pays only when the workers' partials shrink the exchange's
// traffic: a group-by with about one group per three line items stays
// above the exchange, says why, and still matches serial.
TEST(ParallelPlanShape, ManyGroupsStayAboveTheExchange) {
  const char* sql =
      "select l_extendedprice, count(*) as n, sum(l_discount) as s "
      "from lineitem group by l_extendedprice";
  OptimizerConfig config = DefaultConfig();
  config.parallel_workers = 4;
  config.trace_level = TraceLevel::kOptimizer;
  QueryEngine engine(TpcdMultiMorselDb(), config);
  auto run = engine.RunAnalyzed(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& text = run.value().analyzed_plan_text;
  EXPECT_EQ(text.find("HashGroupBy(partial)"), std::string::npos) << text;
  EXPECT_NE(text.find("Exchange("), std::string::npos) << text;
  EXPECT_NE(text.find("pushed=false reason=too many groups per input row"),
            std::string::npos)
      << text;
  ExpectParallelIdentical(TpcdMultiMorselDb(), "many groups", sql,
                          DefaultConfig());
}

// ---- A serial Sort that spills above an exchange ------------------------

// A Sort over a hash join cannot join a chain, so it runs serially above
// the exchange that parallelizes the join's probe side. Under a small row
// budget it spills through the query's own SpillManager: the rows must
// match serial, the shared budget must drain to zero, and no run file may
// be left behind.
TEST(ParallelSpill, SerialSortSpillsAboveExchange) {
  std::string dir = ::testing::TempDir() + "ordopt-parallel-serial-spill";
  std::filesystem::create_directories(dir);
  ScopedTmpdirEnv env(dir);

  OptimizerConfig config = DefaultConfig();
  config.cost_params.sort_memory_rows = 64;
  config.verify_orders = true;
  const char* sql =
      "select l_orderkey, l_linenumber, o_orderdate from orders, lineitem "
      "where o_orderkey = l_orderkey and l_shipdate > date('1995-01-01') "
      "order by o_orderdate, l_orderkey, l_linenumber";
  QueryEngine serial(TpcdMultiMorselDb(), config);
  auto serial_run = serial.Run(sql);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();

  config.parallel_workers = 4;
  SharedMemoryBudget budget(64 << 20);
  QueryGuard guard;
  guard.set_shared_budget(&budget);
  QueryEngine engine(TpcdMultiMorselDb(), config);
  auto run = engine.Run(sql, &guard);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string& plan = run.value().plan_text;
  const size_t sort = plan.find("Sort");
  ASSERT_NE(sort, std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin", sort), std::string::npos) << plan;
  EXPECT_NE(plan.find("Exchange(merge", sort), std::string::npos) << plan;
  EXPECT_EQ(plan.rfind("Exchange", sort), std::string::npos)
      << "the Sort must run above every exchange:\n" << plan;
  EXPECT_EQ(run.value().rows, serial_run.value().rows) << plan;
  EXPECT_GT(run.value().metrics.spill_runs, 0) << plan;
  EXPECT_EQ(budget.used_bytes(), 0);
  EXPECT_EQ(SpillFilesIn(dir), 0);
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
  static constexpr int64_t kRowsPerCharge = 3;
  QueryGuard guard;
  SharedMemoryBudget budget(1 << 30);
  guard.set_shared_budget(&budget);
  guard.Arm();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&guard] {
      for (int i = 0; i < kIterations; ++i) {
        EXPECT_EQ(guard.OnRowsScanned(kRowsPerCharge), kRowsPerCharge);
        EXPECT_TRUE(guard.OnRowsBuffered(1, 64));
        if (i % 16 == 0) guard.ForceCheck();
        guard.OnBufferReleased(1, 64);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
  EXPECT_EQ(guard.rows_scanned(),
            int64_t{kThreads} * kIterations * kRowsPerCharge);
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
