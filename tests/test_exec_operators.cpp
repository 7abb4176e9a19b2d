// Unit tests for the Volcano operators, driven directly (no optimizer):
// scans, filters, sorts, all join algorithms, grouping, distinct, project.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/random.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/order_check.h"
#include "storage/database.h"

namespace ordopt {
namespace {

// Emits fixed rows in batches of the context's batch_rows, so tests can
// pick the batch size a stream is produced at (and share a guard).
class RowSource : public Operator {
 public:
  RowSource(std::vector<ColumnId> layout, std::vector<Row> rows,
            ExecContext ctx = ExecContext())
      : Operator(ctx), rows_(std::move(rows)) {
    layout_ = std::move(layout);
  }
  void OpenImpl() override { pos_ = 0; }
  bool NextBatchImpl(RowBatch* out) override {
    out->Reset(layout_.size(), BatchCapacity());
    while (!out->full() && pos_ < rows_.size()) out->AppendRow(rows_[pos_++]);
    return !out->empty();
  }

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

std::vector<Row> Drain(Operator* op) {
  op->Open();
  std::vector<Row> out;
  RowBatch batch;
  while (op->NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.size(); ++i) {
      out.push_back(batch.TakeRow(i));
    }
  }
  op->Close();
  return out;
}

Row R(std::initializer_list<int64_t> vals) {
  Row row;
  for (int64_t v : vals) row.push_back(Value::Int(v));
  return row;
}

std::unique_ptr<Table> MakeTable(int rows, bool clustered_index) {
  TableDef def;
  def.name = "t";
  def.columns = {{"k", DataType::kInt64}, {"v", DataType::kInt64}};
  def.AddUniqueKey({"k"});
  def.AddIndex("t_k", {"k"}, /*unique=*/true, clustered_index);
  auto t = std::make_unique<Table>(std::move(def));
  // Insert in reverse so clustered reordering is observable.
  for (int i = rows - 1; i >= 0; --i) {
    t->AppendRow({Value::Int(i), Value::Int(i * 2)});
  }
  ORDOPT_CHECK(t->BuildIndexes().ok());
  return t;
}

TEST(ExecScan, TableScanCountsPages) {
  auto t = MakeTable(200, true);
  RuntimeMetrics m;
  ScanOp scan(*t, 0, ScanOp::kHeap, /*reverse=*/false, {}, &m);
  std::vector<Row> rows = Drain(&scan);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_EQ(m.rows_scanned, 200);
  // 200 rows / 64 per page = 4 pages; first access counts as random.
  EXPECT_EQ(m.seq_pages + m.random_pages, 4);
}

TEST(ExecScan, IndexScanOrderedAndReverse) {
  auto t = MakeTable(100, false);
  RuntimeMetrics m;
  ScanOp fwd(*t, 0, 0, /*reverse=*/false, {}, &m);
  std::vector<Row> rows = Drain(&fwd);
  ASSERT_EQ(rows.size(), 100u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), static_cast<int64_t>(i));
  }
  ScanOp rev(*t, 0, 0, /*reverse=*/true, {}, &m);
  rows = Drain(&rev);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0][0].AsInt(), 99);
  EXPECT_EQ(rows[99][0].AsInt(), 0);
}

Predicate MakeRangePred(ColumnId col, BinOp op, int64_t bound) {
  BoundExpr e = BoundExpr::Binary(
      op, BoundExpr::Column(col, DataType::kInt64, "c"),
      BoundExpr::Literal(Value::Int(bound)), DataType::kInt64);
  return ClassifyPredicate(std::move(e));
}

TEST(ExecScan, IndexRangeScans) {
  auto t = MakeTable(100, true);
  RuntimeMetrics m;
  {
    ScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kGt, 89)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows[0][0].AsInt(), 90);
  }
  {
    ScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kGe, 90)},
                   &m);
    EXPECT_EQ(Drain(&op).size(), 10u);
  }
  {
    ScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kLt, 10)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows.back()[0].AsInt(), 9);
  }
  {
    ScanOp op(*t, 0, 0, false, {MakeRangePred({0, 0}, BinOp::kEq, 42)},
                   &m);
    std::vector<Row> rows = Drain(&op);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1].AsInt(), 84);
  }
}

// Where a comparison's qualifying entries start depends on the key
// column's direction: NULLs sort first under ASC, so an upper-bound scan
// must seek past them; under DESC, < / <= bound the seek and > / >= end
// the scan.
TEST(ExecScan, IndexRangeScansHonorNullsAndDescColumns) {
  TableDef def;
  def.name = "t";
  def.columns = {{"k", DataType::kInt64}, {"d", DataType::kInt64}};
  def.AddIndex("t_kd", {"k", "d"});
  def.indexes.back().directions[1] = SortDirection::kDescending;
  Table t(std::move(def));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(t.AppendRow({i % 6 == 0 ? Value::Null() : Value::Int(i % 5),
                             Value::Int(i % 4)})
                    .ok());
  }
  ASSERT_TRUE(t.BuildIndexes().ok());
  RuntimeMetrics m;
  auto scan = [&](std::vector<Predicate> preds) {
    ScanOp op(t, 0, 0, false, std::move(preds), &m);
    return Drain(&op);
  };
  auto count = [&](auto keep) {
    size_t n = 0;
    for (int64_t rid = 0; rid < t.row_count(); ++rid) {
      if (keep(t.row(rid))) ++n;
    }
    return n;
  };
  // k < 3: the 10 NULL-k rows sort first and must be skipped, not end it.
  std::vector<Row> rows = scan({MakeRangePred({0, 0}, BinOp::kLt, 3)});
  EXPECT_EQ(rows.size(), count([](const Row& r) {
              return !r[0].is_null() && r[0].AsInt() < 3;
            }));
  EXPECT_FALSE(rows.empty());
  // k = 2 and d > 1 / d <= 1 under d DESC.
  rows = scan({MakeRangePred({0, 0}, BinOp::kEq, 2),
               MakeRangePred({0, 1}, BinOp::kGt, 1)});
  EXPECT_EQ(rows.size(), count([](const Row& r) {
              return !r[0].is_null() && r[0].AsInt() == 2 && r[1].AsInt() > 1;
            }));
  for (const Row& r : rows) EXPECT_GT(r[1].AsInt(), 1);
  rows = scan({MakeRangePred({0, 0}, BinOp::kEq, 2),
               MakeRangePred({0, 1}, BinOp::kLe, 1)});
  EXPECT_EQ(rows.size(), count([](const Row& r) {
              return !r[0].is_null() && r[0].AsInt() == 2 && r[1].AsInt() <= 1;
            }));
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front()[1].AsInt(), 1);  // DESC: 1 before 0
}

TEST(ExecSort, SortsWithDirectionsAndCountsComparisons) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout, std::vector<Row>{R({2, 1}), R({1, 5}), R({2, 0}), R({1, 2})});
  RuntimeMetrics m;
  SortOp sort(std::move(src),
              OrderSpec{{ColumnId(0, 0)},
                        {ColumnId(0, 1), SortDirection::kDescending}},
              &m);
  std::vector<Row> rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], R({1, 5}));
  EXPECT_EQ(rows[1], R({1, 2}));
  EXPECT_EQ(rows[2], R({2, 1}));
  EXPECT_EQ(rows[3], R({2, 0}));
  EXPECT_GT(m.comparisons, 0);
  EXPECT_EQ(m.sorts_performed, 1);
  EXPECT_EQ(m.rows_sorted, 4);
}

// ---- Batched guard accounting -------------------------------------------

// A scan charges its rows to the guard once per batch, yet a scan limit
// still stops it at the exact row: the tripping row is counted, nothing
// past the limit is emitted, and the guard agrees with the metrics. Heap,
// clustered (identity) and reverse (cursor) walks, at two batch sizes.
TEST(ExecAccounting, ScanLimitStopsAtTheExactRow) {
  auto t = MakeTable(200, true);
  struct Walk {
    int index;
    bool reverse;
  };
  for (int64_t batch_rows : {int64_t{16}, kDefaultBatchRows}) {
    for (Walk walk : {Walk{ScanOp::kHeap, false}, Walk{0, false},
                      Walk{0, true}}) {
      SCOPED_TRACE(StrFormat("batch_rows=%lld index=%d reverse=%d",
                             static_cast<long long>(batch_rows), walk.index,
                             walk.reverse));
      QueryLimits limits;
      limits.max_rows_scanned = 50;
      QueryGuard guard(limits);
      guard.Arm();
      RuntimeMetrics m;
      ExecContext ctx(&m, &guard);
      ctx.batch_rows = batch_rows;
      ScanOp scan(*t, 0, walk.index, walk.reverse, {}, ctx);
      EXPECT_EQ(Drain(&scan).size(), 50u);
      EXPECT_EQ(m.rows_scanned, 51);
      EXPECT_EQ(guard.rows_scanned(), 51);
      EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

// The same for index probes: the join gathers a batch of matches, charges
// them once, and keeps only the admitted ones.
TEST(ExecAccounting, ProbeLimitStopsAtTheExactRow) {
  auto t = MakeTable(50, true);
  std::vector<Row> keys;
  for (int64_t k = 0; k < 20; ++k) keys.push_back(R({k}));
  QueryLimits limits;
  limits.max_rows_scanned = 7;
  QueryGuard guard(limits);
  guard.Arm();
  RuntimeMetrics m;
  ExecContext ctx(&m, &guard);
  auto outer = std::make_unique<RowSource>(std::vector<ColumnId>{{9, 0}},
                                           std::move(keys), ctx);
  IndexNLJoinOp join(std::move(outer), *t, 0, 0,
                     {{ColumnId(9, 0), ColumnId(0, 0)}}, ctx);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows.back(), R({6, 6, 12}));
  EXPECT_EQ(m.rows_scanned, 8);
  EXPECT_EQ(guard.rows_scanned(), 8);
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

// A range of rows costs the pages that a per-row walk over it would.
TEST(ExecAccounting, PageRangeMatchesPerRowAccess) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    RuntimeMetrics per_row;
    RuntimeMetrics ranged;
    PageTracker a(&per_row, kRowsPerPage);
    PageTracker b(&ranged, kRowsPerPage);
    for (int step = 0; step < 8; ++step) {
      const int64_t begin = rng.Uniform(0, 5000);
      const int64_t end = begin + rng.Uniform(0, 600);
      for (int64_t rid = begin; rid < end; ++rid) a.Access(rid);
      b.AccessRange(begin, end);
      ASSERT_EQ(per_row.seq_pages, ranged.seq_pages);
      ASSERT_EQ(per_row.random_pages, ranged.random_pages);
    }
  }
}

// Records the guard's buffered-row total each time it is pulled.
class GuardWatchingSource : public RowSource {
 public:
  GuardWatchingSource(std::vector<ColumnId> layout, std::vector<Row> rows,
                      ExecContext ctx)
      : RowSource(std::move(layout), std::move(rows), ctx) {}
  bool NextBatchImpl(RowBatch* out) override {
    seen.push_back(ctx_.guard->buffered_rows());
    return RowSource::NextBatchImpl(out);
  }
  std::vector<int64_t> seen;
};

// A sort's buffered rows are charged when it pulls its child again, not
// per row; the peak is still exact, and Close returns the guard and the
// shared budget to zero.
TEST(ExecAccounting, SortChargeReachesTheGuardAtTheNextPull) {
  QueryGuard guard;
  SharedMemoryBudget budget;
  guard.set_shared_budget(&budget);
  guard.Arm();
  RuntimeMetrics m;
  ExecContext ctx(&m, &guard);
  ctx.batch_rows = 4;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(R({9 - i}));
  auto src = std::make_unique<GuardWatchingSource>(
      std::vector<ColumnId>{{0, 0}}, std::move(rows), ctx);
  GuardWatchingSource* watch = src.get();
  SortOp sort(std::move(src), OrderSpec{{ColumnId(0, 0)}}, ctx);
  sort.Open();
  // Three batches (4, 4, 2 rows), then the end-of-stream pull.
  EXPECT_EQ(watch->seen, (std::vector<int64_t>{0, 4, 8, 10}));
  EXPECT_EQ(guard.buffered_rows(), 10);
  EXPECT_GT(budget.used_bytes(), 0);
  EXPECT_EQ(budget.used_bytes(), guard.buffered_bytes());
  RowBatch batch;
  int64_t emitted = 0;
  while (sort.NextBatch(&batch)) emitted += batch.size();
  EXPECT_EQ(emitted, 10);
  sort.Close();
  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
  EXPECT_EQ(guard.buffered_rows_peak(), 10);
  EXPECT_EQ(guard.buffered_rows(), 0);
  EXPECT_EQ(guard.buffered_bytes(), 0);
  EXPECT_EQ(budget.used_bytes(), 0);
}

// A buffer limit smaller than one batch trips at the flush after the
// batch that crossed it, and the tripped sort releases everything.
TEST(ExecAccounting, BufferLimitBelowOneBatchTrips) {
  QueryLimits limits;
  limits.max_buffered_rows = 3;
  QueryGuard guard(limits);
  SharedMemoryBudget budget;
  guard.set_shared_budget(&budget);
  guard.Arm();
  RuntimeMetrics m;
  ExecContext ctx(&m, &guard);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(R({i}));
  auto src = std::make_unique<RowSource>(std::vector<ColumnId>{{0, 0}},
                                         std::move(rows), ctx);
  SortOp sort(std::move(src), OrderSpec{{ColumnId(0, 0)}}, ctx);
  EXPECT_TRUE(Drain(&sort).empty());
  ASSERT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(guard.status().message().find("buffer limit"), std::string::npos)
      << guard.status().ToString();
  EXPECT_EQ(guard.buffered_rows(), 0);
  EXPECT_EQ(guard.buffered_bytes(), 0);
  EXPECT_EQ(budget.used_bytes(), 0);
}

TEST(ExecMergeJoin, ManyToManyGroups) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({1}), R({2}), R({2}), R({4})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2, 10}), R({2, 20}), R({3, 30}), R({4, 40})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner, &m);
  std::vector<Row> rows = Drain(&join);
  // 2 outer 2s x 2 inner 2s + 1x1 for key 4 = 5 rows.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], R({2, 2, 10}));
  EXPECT_EQ(rows[1], R({2, 2, 20}));
  EXPECT_EQ(rows[4], R({4, 4, 40}));
}

TEST(ExecMergeJoin, NullKeysNeverMatch) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  Row null_row;
  null_row.push_back(Value::Null());
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{null_row, R({1})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{null_row, R({1})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner, &m);
  EXPECT_EQ(Drain(&join).size(), 1u);
}

TEST(ExecHashJoin, MatchesAndNulls) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  Row null_row;
  null_row.push_back(Value::Null());
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({5}), null_row, R({6})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({5, 1}), R({5, 2}), R({7, 3})});
  HashJoinOp join(std::move(outer), std::move(inner),
                  {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kInner);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt(), 5);
}

TEST(ExecIndexNLJoin, ProbesAndConcatenates) {
  auto t = MakeTable(50, true);
  std::vector<ColumnId> lo = {{9, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({3}), R({3}), R({49}), R({77})});
  RuntimeMetrics m;
  IndexNLJoinOp join(std::move(outer), *t, 0, 0,
                     {{ColumnId(9, 0), ColumnId(0, 0)}}, &m);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);  // 77 misses
  EXPECT_EQ(rows[0], R({3, 3, 6}));
  EXPECT_EQ(rows[2], R({49, 49, 98}));
  EXPECT_EQ(m.index_probes, 4);
}

TEST(ExecNaiveNLJoin, CrossProduct) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer =
      std::make_unique<RowSource>(lo, std::vector<Row>{R({1}), R({2})});
  auto inner =
      std::make_unique<RowSource>(li, std::vector<Row>{R({10}), R({20})});
  NaiveNLJoinOp join(std::move(outer), std::move(inner), {},
                     JoinKind::kInner);
  EXPECT_EQ(Drain(&join).size(), 4u);
}

TEST(ExecMergeLeftJoin, PadsUnmatchedAndNullKeys) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  Row null_row;
  null_row.push_back(Value::Null());
  // Outer (sorted, NULL first): NULL, 1, 2, 2, 4.
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{null_row, R({1}), R({2}), R({2}), R({4})});
  // Inner (sorted): 2x2, 3, 4.
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2, 10}), R({2, 20}), R({3, 30}), R({4, 40})});
  RuntimeMetrics m;
  MergeJoinOp join(std::move(outer), std::move(inner),
                   {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kLeft, &m);
  std::vector<Row> rows = Drain(&join);
  // NULL -> padded; 1 -> padded; 2 -> two matches each (x2 outers);
  // 4 -> one match. Total 1 + 1 + 4 + 1 = 7, in outer order.
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());  // padded inner
  EXPECT_EQ(rows[1][0].AsInt(), 1);
  EXPECT_TRUE(rows[1][2].is_null());
  EXPECT_EQ(rows[2], R({2, 2, 10}));
  EXPECT_EQ(rows[3], R({2, 2, 20}));
  EXPECT_EQ(rows[4], R({2, 2, 10}));
  EXPECT_EQ(rows[5], R({2, 2, 20}));
  EXPECT_EQ(rows[6], R({4, 4, 40}));
}

TEST(ExecHashLeftJoin, PadsUnmatched) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({7}), R({8})});
  auto inner = std::make_unique<RowSource>(li, std::vector<Row>{R({8})});
  HashJoinOp join(std::move(outer), std::move(inner),
                  {{ColumnId(0, 0), ColumnId(1, 0)}}, JoinKind::kLeft);
  std::vector<Row> rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_EQ(rows[1][1].AsInt(), 8);
}

TEST(ExecNaiveLeftJoin, ArbitraryOnCondition) {
  std::vector<ColumnId> lo = {{0, 0}};
  std::vector<ColumnId> li = {{1, 0}};
  auto outer = std::make_unique<RowSource>(
      lo, std::vector<Row>{R({1}), R({5})});
  auto inner = std::make_unique<RowSource>(
      li, std::vector<Row>{R({2}), R({3}), R({9})});
  // ON outer.c0 < inner.c0 and inner.c0 < 9.
  BoundExpr cond = BoundExpr::Binary(
      BinOp::kAnd,
      BoundExpr::Binary(BinOp::kLt,
                        BoundExpr::Column({0, 0}, DataType::kInt64, "o"),
                        BoundExpr::Column({1, 0}, DataType::kInt64, "i"),
                        DataType::kInt64),
      BoundExpr::Binary(BinOp::kLt,
                        BoundExpr::Column({1, 0}, DataType::kInt64, "i"),
                        BoundExpr::Literal(Value::Int(9)), DataType::kInt64),
      DataType::kInt64);
  NaiveNLJoinOp join(std::move(outer), std::move(inner),
                     {ClassifyPredicate(std::move(cond))}, JoinKind::kLeft);
  std::vector<Row> rows = Drain(&join);
  // outer 1 matches inner 2 and 3; outer 5 matches nothing -> padded.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], R({1, 2}));
  EXPECT_EQ(rows[1], R({1, 3}));
  EXPECT_EQ(rows[2][0].AsInt(), 5);
  EXPECT_TRUE(rows[2][1].is_null());
}

// Join differential: seeded inputs through every join algorithm x kind x
// batch size, checked against a brute-force nested loop over the same
// inputs. Keys are drawn from a small domain so keys repeat on both sides
// (many-to-many), with NULLs on either side, int64 outer keys against
// equal double inner keys, one- and two-column keys, and empty inputs.

enum class JoinAlgo { kMerge, kHash, kNestedLoop };

struct JoinInputs {
  size_t key_cols = 1;
  std::vector<Row> outer;  // key columns, then a payload id
  std::vector<Row> inner;
};

Value RandomKey(Rng* rng, bool as_double) {
  if (rng->Chance(0.15)) return Value::Null();
  const int64_t k = rng->Uniform(0, 4);
  if (!as_double) return Value::Int(k);
  // Mostly integral doubles (equal to an int64 key), sometimes a fraction
  // that matches nothing.
  return Value::Double(static_cast<double>(k) + (rng->Chance(0.2) ? 0.5 : 0));
}

std::vector<Row> RandomRows(Rng* rng, size_t key_cols, bool double_keys,
                            int64_t payload_base) {
  const int64_t n = rng->Chance(0.1) ? 0 : rng->Uniform(1, 12);
  std::vector<Row> rows;
  for (int64_t i = 0; i < n; ++i) {
    Row row;
    for (size_t c = 0; c < key_cols; ++c) {
      row.push_back(RandomKey(rng, double_keys && rng->Chance(0.5)));
    }
    row.push_back(Value::Int(payload_base + i));
    rows.push_back(std::move(row));
  }
  return rows;
}

JoinInputs RandomJoinInputs(uint64_t seed) {
  Rng rng(seed);
  JoinInputs in;
  in.key_cols = rng.Chance(0.5) ? 1 : 2;
  in.outer = RandomRows(&rng, in.key_cols, /*double_keys=*/false, 1000);
  in.inner = RandomRows(&rng, in.key_cols, /*double_keys=*/true, 2000);
  return in;
}

std::vector<ColumnId> JoinSideLayout(int table, size_t key_cols) {
  std::vector<ColumnId> layout;
  for (size_t c = 0; c <= key_cols; ++c) {
    layout.push_back(ColumnId(table, static_cast<int32_t>(c)));
  }
  return layout;
}

bool KeysMatch(const Row& o, const Row& i, size_t key_cols) {
  for (size_t c = 0; c < key_cols; ++c) {
    if (o[c].is_null() || i[c].is_null() || o[c].Compare(i[c]) != 0) {
      return false;
    }
  }
  return true;
}

// Brute-force reference in outer order, inner order within an outer row.
// The inner nested-loop case is the cartesian product.
std::vector<Row> ReferenceJoin(const JoinInputs& in, JoinAlgo algo,
                               JoinKind kind) {
  const bool cartesian =
      algo == JoinAlgo::kNestedLoop && kind == JoinKind::kInner;
  std::vector<Row> out;
  for (const Row& o : in.outer) {
    bool matched = false;
    for (const Row& i : in.inner) {
      if (!cartesian && !KeysMatch(o, i, in.key_cols)) continue;
      matched = true;
      Row row = o;
      row.insert(row.end(), i.begin(), i.end());
      out.push_back(std::move(row));
    }
    if (kind == JoinKind::kLeft && !matched) {
      Row row = o;
      row.resize(o.size() + in.key_cols + 1, Value::Null());
      out.push_back(std::move(row));
    }
  }
  return out;
}

void SortByKey(std::vector<Row>* rows, size_t key_cols) {
  std::stable_sort(rows->begin(), rows->end(),
                   [key_cols](const Row& a, const Row& b) {
                     for (size_t c = 0; c < key_cols; ++c) {
                       int cmp = a[c].Compare(b[c]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
}

std::vector<Row> RunJoin(JoinInputs in, JoinAlgo algo, JoinKind kind,
                         int64_t batch_rows, RuntimeMetrics* m) {
  ExecContext ctx(m);
  ctx.batch_rows = batch_rows;
  const std::vector<ColumnId> lo = JoinSideLayout(0, in.key_cols);
  const std::vector<ColumnId> li = JoinSideLayout(1, in.key_cols);
  std::vector<std::pair<ColumnId, ColumnId>> pairs;
  std::vector<Predicate> on;
  for (size_t c = 0; c < in.key_cols; ++c) {
    pairs.emplace_back(lo[c], li[c]);
    on.push_back(ClassifyPredicate(BoundExpr::Binary(
        BinOp::kEq, BoundExpr::Column(lo[c], DataType::kInt64, "o"),
        BoundExpr::Column(li[c], DataType::kDouble, "i"), DataType::kInt64)));
  }
  auto outer = std::make_unique<RowSource>(lo, std::move(in.outer), ctx);
  auto inner = std::make_unique<RowSource>(li, std::move(in.inner), ctx);
  std::unique_ptr<Operator> join;
  switch (algo) {
    case JoinAlgo::kMerge:
      join = std::make_unique<MergeJoinOp>(std::move(outer), std::move(inner),
                                           pairs, kind, ctx);
      break;
    case JoinAlgo::kHash:
      join = std::make_unique<HashJoinOp>(std::move(outer), std::move(inner),
                                          pairs, kind, ctx);
      break;
    case JoinAlgo::kNestedLoop:
      if (kind == JoinKind::kInner) on.clear();
      join = std::make_unique<NaiveNLJoinOp>(
          std::move(outer), std::move(inner), std::move(on), kind, ctx);
      break;
  }
  return Drain(join.get());
}

TEST(ExecJoinDifferential, MatchesBruteForceReference) {
  const JoinAlgo algos[] = {JoinAlgo::kMerge, JoinAlgo::kHash,
                            JoinAlgo::kNestedLoop};
  const JoinKind kinds[] = {JoinKind::kInner, JoinKind::kLeft};
  const int64_t batch_sizes[] = {1, 3, 1024};
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    JoinInputs in = RandomJoinInputs(seed);
    // The merge join consumes both sides sorted on the key; the reference
    // runs over the same (sorted) inputs so row order stays comparable.
    JoinInputs sorted = in;
    SortByKey(&sorted.outer, sorted.key_cols);
    SortByKey(&sorted.inner, sorted.key_cols);
    for (JoinAlgo algo : algos) {
      const JoinInputs& input = algo == JoinAlgo::kMerge ? sorted : in;
      for (JoinKind kind : kinds) {
        std::vector<Row> expected = ReferenceJoin(input, algo, kind);
        for (int64_t batch : batch_sizes) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " algo=" << static_cast<int>(algo)
                       << " left=" << (kind == JoinKind::kLeft)
                       << " batch=" << batch);
          RuntimeMetrics m;
          std::vector<Row> actual = RunJoin(input, algo, kind, batch, &m);
          if (algo == JoinAlgo::kHash) {
            // Output order is not part of the hash join's contract.
            std::vector<Row> want = expected;
            std::sort(want.begin(), want.end());
            std::sort(actual.begin(), actual.end());
            ASSERT_EQ(actual, want);
          } else {
            ASSERT_EQ(actual, expected);
          }
        }
      }
    }
  }
}

TEST(ExecUnion, AllAndMerge) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<ColumnId> out_layout = {{9, 0}};
  {
    std::vector<OperatorPtr> kids;
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({1}), R({3})}));
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({2})}));
    UnionAllOp u(std::move(kids), out_layout);
    std::vector<Row> rows = Drain(&u);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].AsInt(), 1);  // branch order
    EXPECT_EQ(rows[2][0].AsInt(), 2);
  }
  {
    RuntimeMetrics m;
    std::vector<OperatorPtr> kids;
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({1}), R({3}), R({5})}));
    kids.push_back(std::make_unique<RowSource>(
        layout, std::vector<Row>{R({2}), R({3})}));
    MergeUnionOp u(std::move(kids), out_layout, &m);
    std::vector<Row> rows = Drain(&u);
    ASSERT_EQ(rows.size(), 5u);
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_LE(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
    }
  }
}

TEST(ExecTopN, KeepsSmallestUnderSpec) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> data;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) data.push_back(R({rng.Uniform(0, 10000)}));
  RuntimeMetrics m;
  TopNOp top(std::make_unique<RowSource>(layout, data),
             OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}}, 10, &m);
  std::vector<Row> rows = Drain(&top);
  ASSERT_EQ(rows.size(), 10u);
  // Equals the full sort's first 10.
  std::sort(data.begin(), data.end(), [](const Row& a, const Row& b) {
    return a[0].AsInt() > b[0].AsInt();
  });
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rows[i][0].AsInt(), data[i][0].AsInt());
  }
  // Zero limit yields nothing.
  TopNOp empty(std::make_unique<RowSource>(layout, data),
               OrderSpec{{ColumnId(0, 0)}}, 0, &m);
  EXPECT_TRUE(Drain(&empty).empty());
}

AggregateSpec MakeAgg(AggFunc func, ColumnId arg, ColumnId out,
                      bool distinct = false, bool star = false) {
  AggregateSpec spec;
  spec.func = func;
  spec.distinct = distinct;
  spec.count_star = star;
  if (!star) spec.arg = BoundExpr::Column(arg, DataType::kInt64, "arg");
  spec.output = out;
  spec.name = "agg";
  return spec;
}

TEST(ExecGroupBy, StreamingGroups) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout,
      std::vector<Row>{R({1, 10}), R({1, 20}), R({2, 5}), R({3, 7}),
                       R({3, 0})});
  RuntimeMetrics m;
  StreamGroupByOp group(
      std::move(src), {ColumnId(0, 0)},
      {MakeAgg(AggFunc::kSum, {0, 1}, {5, 0}),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 1}, false, /*star=*/true),
       MakeAgg(AggFunc::kMin, {0, 1}, {5, 2}),
       MakeAgg(AggFunc::kMax, {0, 1}, {5, 3})},
      &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], R({1, 30, 2, 10, 20}));
  EXPECT_EQ(rows[1], R({2, 5, 1, 5, 5}));
  EXPECT_EQ(rows[2], R({3, 7, 2, 0, 7}));
}

TEST(ExecGroupBy, GlobalAggregateOnEmptyInput) {
  std::vector<ColumnId> layout = {{0, 0}};
  auto src = std::make_unique<RowSource>(layout, std::vector<Row>{});
  RuntimeMetrics m;
  StreamGroupByOp group(std::move(src), {},
                        {MakeAgg(AggFunc::kCount, {0, 0}, {5, 0}, false,
                                 /*star=*/true),
                         MakeAgg(AggFunc::kSum, {0, 0}, {5, 1})},
                        &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(ExecGroupBy, DistinctAggregatesAndNulls) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  Row with_null = R({1, 0});
  with_null[1] = Value::Null();
  auto src = std::make_unique<RowSource>(
      layout,
      std::vector<Row>{R({1, 5}), R({1, 5}), R({1, 7}), with_null});
  RuntimeMetrics m;
  StreamGroupByOp group(
      std::move(src), {ColumnId(0, 0)},
      {MakeAgg(AggFunc::kSum, {0, 1}, {5, 0}, /*distinct=*/true),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 1}),
       MakeAgg(AggFunc::kCount, {0, 1}, {5, 2}, /*distinct=*/true)},
      &m);
  std::vector<Row> rows = Drain(&group);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsInt(), 12);  // sum(distinct 5, 7)
  EXPECT_EQ(rows[0][2].AsInt(), 3);   // count non-null
  EXPECT_EQ(rows[0][3].AsInt(), 2);   // count distinct
}

TEST(ExecGroupBy, HashMatchesStream) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  std::vector<Row> data;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    data.push_back(R({rng.Uniform(0, 5), rng.Uniform(0, 50)}));
  }
  std::vector<AggregateSpec> aggs = {MakeAgg(AggFunc::kSum, {0, 1}, {5, 0}),
                                     MakeAgg(AggFunc::kAvg, {0, 1}, {5, 1})};
  RuntimeMetrics m;
  HashGroupByOp hash(std::make_unique<RowSource>(layout, data),
                     {ColumnId(0, 0)}, aggs, &m);
  std::vector<Row> hashed = Drain(&hash);

  std::sort(data.begin(), data.end(), [](const Row& a, const Row& b) {
    return a[0].AsInt() < b[0].AsInt();
  });
  StreamGroupByOp stream(std::make_unique<RowSource>(layout, data),
                         {ColumnId(0, 0)}, aggs, &m);
  std::vector<Row> streamed = Drain(&stream);
  ASSERT_EQ(hashed.size(), streamed.size());
  for (size_t i = 0; i < hashed.size(); ++i) {
    for (size_t c = 0; c < hashed[i].size(); ++c) {
      EXPECT_EQ(hashed[i][c].Compare(streamed[i][c]), 0);
    }
  }
}

TEST(ExecDistinct, StreamAndHash) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  std::vector<Row> sorted_dups = {R({1, 9}), R({1, 9}), R({2, 9}), R({2, 8}),
                                  R({2, 8})};
  StreamDistinctOp stream(std::make_unique<RowSource>(layout, sorted_dups),
                          ColumnSet{{0, 0}, {0, 1}});
  EXPECT_EQ(Drain(&stream).size(), 3u);

  std::vector<Row> unsorted = {R({2, 8}), R({1, 9}), R({2, 8}), R({1, 9})};
  HashDistinctOp hash(std::make_unique<RowSource>(layout, unsorted),
                      ColumnSet{{0, 0}, {0, 1}});
  EXPECT_EQ(Drain(&hash).size(), 2u);

  // Distinct on a column subset.
  StreamDistinctOp subset(std::make_unique<RowSource>(layout, sorted_dups),
                          ColumnSet{{0, 0}});
  EXPECT_EQ(Drain(&subset).size(), 2u);
}

// --- Aggregation differential: hash vs stream vs brute force ---------------

// Input columns: k1 (int64, double or NULL; int 3 and double 3.0 both
// occur), k2 (string or NULL), then the aggregate arguments i (int64), d
// (double), dt (date), s (string) and mix (int64 or double), each
// sometimes NULL.
enum AggCol { kK1, kK2, kI, kD, kDt, kS, kMix, kAggCols };

std::vector<Row> RandomAggInput(uint64_t seed) {
  Rng rng(seed);
  const int64_t n = rng.Uniform(0, 3) == 0 ? 0 : rng.Uniform(1, 120);
  const int64_t key_range = rng.Uniform(1, 6);
  auto maybe_null = [&rng](Value v) {
    return rng.Chance(0.15) ? Value::Null() : std::move(v);
  };
  std::vector<Row> rows;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t k = rng.Uniform(0, key_range);
    Row row(kAggCols);
    const Value int_key = Value::Int(k);
    const Value double_key = Value::Double(static_cast<double>(k));
    row[kK1] = maybe_null(rng.Chance(0.5) ? int_key : double_key);
    row[kK2] = maybe_null(Value::Str(std::string(1, static_cast<char>(
                                         'a' + rng.Uniform(0, 2)))));
    row[kI] = maybe_null(Value::Int(rng.Uniform(-5, 5)));
    row[kD] = maybe_null(Value::Double(rng.Uniform(-40, 40) / 8.0 + 0.1));
    row[kDt] = maybe_null(Value::Date(9000 + rng.Uniform(0, 6)));
    row[kS] = maybe_null(Value::Str(std::string(
        static_cast<size_t>(rng.Uniform(0, 2)),
        static_cast<char>('p' + rng.Uniform(0, 3)))));
    const int64_t m = rng.Uniform(0, 4);
    row[kMix] = maybe_null(rng.Chance(0.5) ? Value::Int(m)
                                           : Value::Double(m + 0.25));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<ColumnId> AggLayout() {
  std::vector<ColumnId> layout;
  for (int c = 0; c < kAggCols; ++c) layout.push_back(ColumnId(0, c));
  return layout;
}

std::vector<AggregateSpec> DifferentialAggs() {
  std::vector<AggregateSpec> aggs;
  auto add = [&aggs](AggFunc func, int col, bool distinct) {
    aggs.push_back(MakeAgg(func, ColumnId(0, col),
                           ColumnId(5, static_cast<int>(aggs.size())),
                           distinct));
  };
  aggs.push_back(MakeAgg(AggFunc::kCount, {0, 0}, {5, 0}, false,
                         /*star=*/true));
  for (bool distinct : {false, true}) {
    add(AggFunc::kCount, kI, distinct);
    add(AggFunc::kCount, kS, distinct);
    for (int col : {kI, kD, kMix}) {
      add(AggFunc::kSum, col, distinct);
      add(AggFunc::kAvg, col, distinct);
    }
    for (int col : {kI, kDt, kS, kMix}) {
      add(AggFunc::kMin, col, distinct);
      add(AggFunc::kMax, col, distinct);
    }
  }
  return aggs;
}

// Lexicographic Value::Compare over the first `width` columns.
int CompareKeys(const Row& a, const Row& b, size_t width) {
  for (size_t c = 0; c < width; ++c) {
    const int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp;
  }
  return 0;
}

// Same type and value; doubles compared bit for bit.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != DataType::kDouble) return a.Compare(b) == 0;
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

void ExpectSameRows(const std::vector<Row>& actual,
                    const std::vector<Row>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size()) << "row " << r;
    for (size_t c = 0; c < actual[r].size(); ++c) {
      EXPECT_TRUE(SameValue(actual[r][c], expected[r][c]))
          << "row " << r << " col " << c << ": "
          << actual[r][c].ToString() << " vs " << expected[r][c].ToString();
    }
  }
}

// Brute force: groups found by linear search (first-seen key values kept),
// values folded in input order, DISTINCT values deduplicated by Compare
// (first seen kept) and folded in ascending order; groups emitted in
// ascending key order. A global aggregate always has its one group. Sums
// are exact: an int64 sum while only int64s arrive, else the total
// accumulated in __float128 (exact over these small ranges) and rounded
// once.
std::vector<Row> ReferenceGroupBy(const std::vector<Row>& input,
                                  const std::vector<int>& keys,
                                  const std::vector<AggregateSpec>& aggs) {
  struct Group {
    Row key;
    std::vector<const Row*> rows;
  };
  std::vector<Group> groups;
  if (keys.empty()) groups.push_back({});
  for (const Row& row : input) {
    Row key;
    for (int k : keys) key.push_back(row[static_cast<size_t>(k)]);
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return CompareKeys(g.key, key, keys.size()) == 0;
    });
    if (it == groups.end()) {
      groups.push_back({key, {}});
      it = groups.end() - 1;
    }
    it->rows.push_back(&row);
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [&](const Group& a, const Group& b) {
                     return CompareKeys(a.key, b.key, keys.size()) < 0;
                   });
  std::vector<Row> out;
  for (const Group& g : groups) {
    Row row = g.key;
    for (const AggregateSpec& spec : aggs) {
      if (spec.count_star) {
        row.push_back(Value::Int(static_cast<int64_t>(g.rows.size())));
        continue;
      }
      std::vector<Value> values;
      for (const Row* r : g.rows) {
        const Value& v = (*r)[static_cast<size_t>(spec.arg.column().column)];
        if (v.is_null()) continue;
        if (spec.distinct &&
            std::any_of(values.begin(), values.end(),
                        [&v](const Value& w) { return w.Compare(v) == 0; })) {
          continue;
        }
        values.push_back(v);
      }
      if (spec.distinct) std::sort(values.begin(), values.end());
      int64_t sum_i = 0;
      __float128 exact = 0;
      bool is_int = true;
      Value best;
      const bool sums =
          spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg;
      for (const Value& v : values) {
        if (sums && v.type() == DataType::kInt64) {
          sum_i += v.AsInt();
          exact += static_cast<__float128>(v.AsInt());
        } else if (sums) {
          is_int = false;
          exact += static_cast<__float128>(v.AsDouble());
        }
        const int cmp = best.is_null() ? 0 : v.Compare(best);
        if (best.is_null() || (spec.func == AggFunc::kMin && cmp < 0) ||
            (spec.func == AggFunc::kMax && cmp > 0)) {
          best = v;
        }
      }
      const int64_t n = static_cast<int64_t>(values.size());
      const double total = static_cast<double>(exact);
      switch (spec.func) {
        case AggFunc::kCount:
          row.push_back(Value::Int(n));
          break;
        case AggFunc::kSum:
          row.push_back(n == 0 ? Value::Null()
                               : is_int ? Value::Int(sum_i)
                                        : Value::Double(total));
          break;
        case AggFunc::kAvg:
          row.push_back(n == 0 ? Value::Null()
                               : Value::Double(total / static_cast<double>(n)));
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          row.push_back(best);
          break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

TEST(ExecAggregationDifferential, HashStreamAndReferenceAgree) {
  const std::vector<ColumnId> layout = AggLayout();
  const std::vector<AggregateSpec> aggs = DifferentialAggs();
  const std::vector<std::vector<int>> key_sets = {{}, {kK1}, {kK1, kK2}};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::vector<Row> input = RandomAggInput(seed);
    for (const std::vector<int>& keys : key_sets) {
      std::vector<ColumnId> group_columns;
      for (int k : keys) {
        group_columns.push_back(layout[static_cast<size_t>(k)]);
      }
      const std::vector<Row> expected = ReferenceGroupBy(input, keys, aggs);
      // Stream grouping reads the input stably sorted on the key, so each
      // group's rows keep their input order.
      std::vector<Row> sorted = input;
      SortByKey(&sorted, keys.size());
      // Exact stream comparisons: each row after the first compares key
      // columns until the first mismatch, plus one per emitted group.
      int64_t stream_cmp = static_cast<int64_t>(expected.size());
      for (size_t r = 1; r < sorted.size(); ++r) {
        size_t c = 0;
        while (c < keys.size() && sorted[r][c].Compare(sorted[r - 1][c]) == 0) {
          ++c;
        }
        stream_cmp += static_cast<int64_t>(std::min(c + 1, keys.size()));
      }
      for (int64_t batch : {1, 3, 1024}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " keys="
                                          << keys.size() << " batch=" << batch);
        RuntimeMetrics hm;
        ExecContext hctx(&hm);
        hctx.batch_rows = batch;
        HashGroupByOp hash(std::make_unique<RowSource>(layout, input, hctx),
                           group_columns, aggs, hctx);
        const std::vector<Row> hashed = Drain(&hash);
        ExpectSameRows(hashed, expected);
        for (size_t r = 1; r < hashed.size(); ++r) {
          EXPECT_LT(CompareKeys(hashed[r - 1], hashed[r], keys.size()), 0);
        }
        EXPECT_EQ(hm.comparisons, 0);

        RuntimeMetrics sm;
        ExecContext sctx(&sm);
        sctx.batch_rows = batch;
        StreamGroupByOp stream(
            std::make_unique<RowSource>(layout, sorted, sctx), group_columns,
            aggs, sctx);
        ExpectSameRows(Drain(&stream), expected);
        EXPECT_EQ(sm.comparisons, stream_cmp);
      }
    }
  }
}

TEST(ExecAggregationDifferential, HashDistinctKeepsFirstRowInInputOrder) {
  const std::vector<ColumnId> layout = AggLayout();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::vector<Row> input = RandomAggInput(seed);
    for (size_t width : {1u, 2u}) {
      std::vector<Row> expected;
      for (const Row& row : input) {
        const bool seen =
            std::any_of(expected.begin(), expected.end(), [&](const Row& e) {
              return CompareKeys(e, row, width) == 0;
            });
        if (!seen) expected.push_back(row);
      }
      // Stream distinct reads the input stably sorted on the key, so each
      // key's first row in sorted order is its first row in input order.
      std::vector<Row> sorted = input;
      SortByKey(&sorted, width);
      std::vector<Row> stream_expected;
      for (const Row& row : sorted) {
        if (stream_expected.empty() ||
            CompareKeys(stream_expected.back(), row, width) != 0) {
          stream_expected.push_back(row);
        }
      }
      ColumnSet columns{layout[kK1]};
      if (width == 2) columns = ColumnSet{layout[kK1], layout[kK2]};
      for (int64_t batch : {1, 3, 1024}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " width="
                                          << width << " batch=" << batch);
        RuntimeMetrics m;
        ExecContext ctx(&m);
        ctx.batch_rows = batch;
        HashDistinctOp distinct(
            std::make_unique<RowSource>(layout, input, ctx), columns, ctx);
        ExpectSameRows(Drain(&distinct), expected);
        StreamDistinctOp stream(
            std::make_unique<RowSource>(layout, sorted, ctx), columns, ctx);
        ExpectSameRows(Drain(&stream), stream_expected);
        EXPECT_EQ(m.comparisons, 0);
      }
    }
  }
}

// Merge-union differential: 1-4 seeded children, each sorted ascending on
// all columns (some empty), with NULLs and int 3 vs double 3.0 ties, at
// several batch sizes. The reference is a stable sort of the concatenated
// children: equal rows keep child order, so ties go to the lower child.
TEST(ExecUnionDifferential, MergeUnionMatchesStableMerge) {
  const std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  const std::vector<ColumnId> out_layout = {{9, 0}, {9, 1}};
  auto less = [](const Row& a, const Row& b) {
    return CompareKeys(a, b, a.size()) < 0;
  };
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<Row>> children(
        static_cast<size_t>(rng.Uniform(1, 4)));
    std::vector<Row> expected;
    for (std::vector<Row>& child : children) {
      const int64_t n = rng.Chance(0.25) ? 0 : rng.Uniform(1, 20);
      for (int64_t i = 0; i < n; ++i) {
        const int64_t k = rng.Uniform(0, 3);
        Value num = rng.Chance(0.5) ? Value::Int(k)
                                    : Value::Double(static_cast<double>(k));
        Value str = Value::Str(
            std::string(1, static_cast<char>('a' + rng.Uniform(0, 1))));
        child.push_back({rng.Chance(0.15) ? Value::Null() : num,
                         rng.Chance(0.15) ? Value::Null() : str});
      }
      std::stable_sort(child.begin(), child.end(), less);
      expected.insert(expected.end(), child.begin(), child.end());
    }
    std::stable_sort(expected.begin(), expected.end(), less);
    for (int64_t batch : {1, 3, 1024}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                        << " children=" << children.size()
                                        << " batch=" << batch);
      RuntimeMetrics m;
      ExecContext ctx(&m);
      ctx.batch_rows = batch;
      std::vector<OperatorPtr> kids;
      for (const std::vector<Row>& child : children) {
        kids.push_back(std::make_unique<RowSource>(layout, child, ctx));
      }
      MergeUnionOp merge(std::move(kids), out_layout, ctx);
      ExpectSameRows(Drain(&merge), expected);
    }
  }
}

// --- In-sort aggregation differential: absorbing sort vs plain sort --------

// RandomAggInput plus kE, a copy of k1 (a spec column outside the group
// columns that carries the same values, like an equivalence-class head),
// and kF, a string k1 determines (an FD-determined group column a spec may
// omit).
enum InSortCol { kE = kAggCols, kF };

std::vector<Row> RandomInSortInput(uint64_t seed) {
  std::vector<Row> rows = RandomAggInput(seed);
  for (Row& row : rows) {
    const Value k1 = row[kK1];
    row.push_back(k1);
    row.push_back(k1.is_null() ? Value::Str("none")
                               : Value::Str(std::to_string(
                                     static_cast<int64_t>(k1.AsDouble()))));
  }
  return rows;
}

struct InSortCase {
  std::vector<int> keys;
  std::vector<std::pair<int, bool>> spec;  ///< (column, descending)
};

// Orders reference output rows (group key first) by a case's spec: a spec
// column is a key column, or kE, which carries k1's values.
bool SpecLess(const InSortCase& c, const Row& a, const Row& b) {
  for (const auto& [col, desc] : c.spec) {
    const int key_col = col == kE ? kK1 : col;
    const size_t p = static_cast<size_t>(
        std::find(c.keys.begin(), c.keys.end(), key_col) - c.keys.begin());
    const int cmp = a[p].Compare(b[p]);
    if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
  }
  return false;
}

// Rows the sort keeps when groups are admitted in first-seen order while
// fewer than budget / 2 are resident (every group without a budget).
int64_t OverflowRows(const std::vector<Row>& input,
                     const std::vector<int>& keys, int64_t budget) {
  const size_t cap = budget > 0 ? static_cast<size_t>(budget / 2) : SIZE_MAX;
  std::vector<Row> resident;
  int64_t overflow = 0;
  for (const Row& row : input) {
    Row key;
    for (int k : keys) key.push_back(row[static_cast<size_t>(k)]);
    const bool found =
        std::any_of(resident.begin(), resident.end(), [&](const Row& r) {
          return CompareKeys(r, key, keys.size()) == 0;
        });
    if (found) continue;
    if (resident.size() < cap) {
      resident.push_back(std::move(key));
    } else {
      ++overflow;
    }
  }
  return overflow;
}

TEST(ExecInSortAggregationDifferential, AbsorbingSortMatchesPlainAndReference) {
  std::vector<ColumnId> layout = AggLayout();
  layout.push_back(ColumnId(0, kE));
  layout.push_back(ColumnId(0, kF));
  const std::vector<AggregateSpec> with_distinct = DifferentialAggs();
  std::vector<AggregateSpec> plain;
  for (const AggregateSpec& a : with_distinct) {
    if (!a.distinct) plain.push_back(a);
  }
  const std::vector<InSortCase> cases = {
      {{kK1, kK2}, {{kK1, false}, {kK2, false}}},
      {{kK1, kK2}, {{kK1, true}, {kK2, true}}},
      {{kK1, kK2}, {{kK2, false}, {kK1, true}}},
      {{kK1, kK2}, {{kE, true}, {kK2, false}}},
      {{kK1, kF}, {{kK1, false}}},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<Row> input = RandomInSortInput(seed);
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      const InSortCase& c = cases[ci];
      std::vector<ColumnId> group_columns;
      for (int k : c.keys) group_columns.push_back(ColumnId(0, k));
      OrderSpec spec;
      for (const auto& [col, desc] : c.spec) {
        spec.Append({ColumnId(0, col), desc ? SortDirection::kDescending
                                               : SortDirection::kAscending});
      }
      // A DISTINCT aggregate list never absorbs (resident groups would hold
      // every group's value set at once), so it runs the plain build only.
      for (bool distinct : {false, true}) {
        const std::vector<AggregateSpec>& aggs =
            distinct ? with_distinct : plain;
        std::vector<Row> expected = ReferenceGroupBy(input, c.keys, aggs);
        std::stable_sort(
            expected.begin(), expected.end(),
            [&c](const Row& a, const Row& b) { return SpecLess(c, a, b); });
        for (int64_t budget : {0, 1, 2, 3, 7, 1 << 20}) {
          const int64_t overflow = OverflowRows(input, c.keys, budget);
          for (int64_t batch : {1, 3, 1024}) {
            for (bool absorb : {true, false}) {
              if (absorb && distinct) continue;  // the same plain build
              SCOPED_TRACE(::testing::Message()
                           << "seed=" << seed << " case=" << ci
                           << " distinct=" << distinct << " budget=" << budget
                           << " batch=" << batch << " absorb=" << absorb);
              RuntimeMetrics m;
              SpillConfig config;
              config.sort_memory_rows = budget;
              SpillManager spill(config, &m);
              ExecContext ctx(&m, nullptr, &spill);
              ctx.batch_rows = batch;
              ctx.collect_op_stats = true;
              auto sort = std::make_unique<SortOp>(
                  std::make_unique<RowSource>(layout, input, ctx), spec, ctx);
              SortOp* sort_op = sort.get();
              StreamGroupByOp group(std::move(sort), group_columns, aggs,
                                    ctx);
              if (absorb) group.AggregateInSort(sort_op);
              const std::vector<Row> rows = Drain(&group);
              ExpectSameRows(rows, expected);
              for (size_t r = 1; r < rows.size(); ++r) {
                EXPECT_TRUE(SpecLess(c, rows[r - 1], rows[r])) << "row " << r;
              }
              EXPECT_EQ(sort_op->stats().rows_out,
                        absorb ? overflow
                               : static_cast<int64_t>(input.size()));
            }
          }
        }
      }
    }
  }
}

TEST(ExecFilterProject, EvaluateExpressions) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  auto src = std::make_unique<RowSource>(
      layout, std::vector<Row>{R({1, 10}), R({5, 2}), R({9, 30})});
  FilterOp filter(std::move(src),
                  {MakeRangePred({0, 0}, BinOp::kGt, 2)});
  std::vector<Row> rows = Drain(&filter);
  ASSERT_EQ(rows.size(), 2u);

  OutputColumn oc;
  oc.expr = BoundExpr::Binary(
      BinOp::kMul, BoundExpr::Column({0, 0}, DataType::kInt64, "k"),
      BoundExpr::Literal(Value::Int(3)), DataType::kInt64);
  oc.name = "k3";
  oc.id = ColumnId(7, 0);
  ProjectOp project(
      std::make_unique<RowSource>(layout, std::vector<Row>{R({2, 0})}),
      {oc});
  rows = Drain(&project);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 6);
}

// --- End-of-stream contract ------------------------------------------------

// Drains `op` through one reused batch, then pulls once more: each false
// return of NextBatch must leave the batch empty, whatever rows the last
// true return put there, on both the stats-off and stats-on paths.
void ExpectEmptyAtEndOfStream(Operator* op) {
  op->Open();
  RowBatch batch;
  int64_t rows = 0;
  while (op->NextBatch(&batch)) rows += batch.size();
  EXPECT_GT(rows, 0);
  EXPECT_TRUE(batch.empty()) << batch.size() << " stale rows at end of stream";
  EXPECT_FALSE(op->NextBatch(&batch));
  EXPECT_TRUE(batch.empty()) << batch.size() << " stale rows after the end";
  op->Close();
}

TEST(ExecEndOfStream, EveryOperatorLeavesTheBatchEmpty) {
  auto t = MakeTable(10, true);
  const std::vector<ColumnId> lo = {{0, 0}, {0, 1}};
  const std::vector<ColumnId> li = {{1, 0}, {1, 1}};
  const std::vector<Row> sorted = {R({1, 9}), R({1, 9}), R({2, 9}),
                                   R({2, 8}), R({3, 8})};
  const std::vector<std::pair<ColumnId, ColumnId>> pairs = {
      {ColumnId(0, 0), ColumnId(1, 0)}};
  const OrderSpec by_key{{ColumnId(0, 0)}};
  const std::vector<AggregateSpec> sum = {
      MakeAgg(AggFunc::kSum, {0, 1}, {5, 0})};
  OutputColumn oc;
  oc.expr = BoundExpr::Column({0, 1}, DataType::kInt64, "v");
  oc.name = "v";
  oc.id = ColumnId(7, 0);

  for (bool stats : {false, true}) {
    RuntimeMetrics m;
    ExecContext ctx(&m);
    ctx.batch_rows = 2;  // several batches, so a stale one is possible
    ctx.collect_op_stats = stats;
    auto src = [&](const std::vector<ColumnId>& layout) {
      return std::make_unique<RowSource>(layout, sorted, ctx);
    };
    auto two = [&]() {
      std::vector<OperatorPtr> kids;
      kids.push_back(src(lo));
      kids.push_back(src(lo));
      return kids;
    };
    std::vector<std::pair<const char*, OperatorPtr>> ops;
    ops.emplace_back("TableScan", std::make_unique<ScanOp>(
                                      *t, 0, ScanOp::kHeap, false,
                                      std::vector<Predicate>{}, ctx));
    ops.emplace_back("IndexScan", std::make_unique<ScanOp>(
                                      *t, 0, 0, false,
                                      std::vector<Predicate>{}, ctx));
    ops.emplace_back("ReverseIndexScan", std::make_unique<ScanOp>(
                                             *t, 0, 0, true,
                                             std::vector<Predicate>{}, ctx));
    ops.emplace_back("Filter", std::make_unique<FilterOp>(
                                   src(lo),
                                   std::vector<Predicate>{
                                       MakeRangePred({0, 0}, BinOp::kLt, 3)},
                                   ctx));
    ops.emplace_back("Sort", std::make_unique<SortOp>(src(lo), by_key, ctx));
    ops.emplace_back("MergeJoin",
                     std::make_unique<MergeJoinOp>(src(lo), src(li), pairs,
                                                   JoinKind::kInner, ctx));
    ops.emplace_back("HashJoin",
                     std::make_unique<HashJoinOp>(src(lo), src(li), pairs,
                                                  JoinKind::kLeft, ctx));
    ops.emplace_back("NestedLoopJoin",
                     std::make_unique<NaiveNLJoinOp>(
                         src(lo), src(li), std::vector<Predicate>{},
                         JoinKind::kInner, ctx));
    ops.emplace_back("IndexNLJoin",
                     std::make_unique<IndexNLJoinOp>(
                         src(lo), *t, 1, 0,
                         std::vector<std::pair<ColumnId, ColumnId>>{
                             {ColumnId(0, 0), ColumnId(1, 0)}},
                         ctx));
    ops.emplace_back("StreamGroupBy",
                     std::make_unique<StreamGroupByOp>(
                         src(lo), std::vector<ColumnId>{{0, 0}}, sum, ctx));
    ops.emplace_back("HashGroupBy",
                     std::make_unique<HashGroupByOp>(
                         src(lo), std::vector<ColumnId>{{0, 0}}, sum, ctx));
    ops.emplace_back("StreamDistinct",
                     std::make_unique<StreamDistinctOp>(
                         src(lo), ColumnSet{{0, 0}, {0, 1}}, ctx));
    ops.emplace_back("HashDistinct",
                     std::make_unique<HashDistinctOp>(
                         src(lo), ColumnSet{{0, 0}, {0, 1}}, ctx));
    ops.emplace_back("UnionAll",
                     std::make_unique<UnionAllOp>(two(), lo, ctx));
    ops.emplace_back("MergeUnion",
                     std::make_unique<MergeUnionOp>(two(), lo, ctx));
    ops.emplace_back("TopN",
                     std::make_unique<TopNOp>(src(lo), by_key, 3, ctx));
    ops.emplace_back("Limit", std::make_unique<LimitOp>(src(lo), 3, ctx));
    ops.emplace_back("Project", std::make_unique<ProjectOp>(
                                    src(lo), std::vector<OutputColumn>{oc},
                                    ctx));
    for (auto& [name, op] : ops) {
      SCOPED_TRACE(std::string(name) + (stats ? " with stats" : ""));
      ExpectEmptyAtEndOfStream(op.get());
    }
  }
}

// --- Order verification at batch granularity -------------------------------

PlanNode SortClaimNode(OrderSpec spec) {
  PlanNode node;
  node.kind = OpKind::kSort;
  node.sort_spec = spec;
  node.props.order = std::move(spec);
  return node;
}

TEST(OrderCheckBatches, DescDuplicateRunsAcrossBatchBoundaries) {
  std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  // DESC on col0 with 5-row duplicate runs; batch size 3 guarantees every
  // run and most run transitions straddle a batch boundary. NULL keys go
  // last: DESC negates Compare wholesale, NULLs included.
  std::vector<Row> rows;
  for (int64_t k = 9; k >= 0; --k) {
    for (int64_t j = 0; j < 5; ++j) rows.push_back(R({k, j}));
  }
  rows.push_back({Value::Null(), Value::Int(0)});
  rows.push_back({Value::Null(), Value::Int(1)});

  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(
      OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}});
  OrderCheckOp check(std::make_unique<RowSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  std::vector<Row> out = Drain(&check);
  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
  EXPECT_EQ(out.size(), rows.size());
}

TEST(OrderCheckBatches, AscDuplicatesWithLeadingNulls) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> rows = {{Value::Null()}, {Value::Null()}, {Value::Int(0)},
                           {Value::Int(0)}, {Value::Int(0)}, {Value::Int(1)},
                           {Value::Int(1)}, {Value::Int(2)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(OrderSpec{{ColumnId(0, 0)}});
  OrderCheckOp check(std::make_unique<RowSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  EXPECT_EQ(Drain(&check).size(), rows.size());
  EXPECT_TRUE(guard.ok()) << guard.status().ToString();
}

TEST(OrderCheckBatches, ViolationExactlyAtBatchBoundary) {
  std::vector<ColumnId> layout = {{0, 0}};
  // Sorted within each batch of 3, but the boundary pair 3 -> 2 violates
  // the ASC claim — only the cross-batch check can catch it.
  std::vector<Row> rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                           {Value::Int(2)}, {Value::Int(3)}, {Value::Int(4)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 3;
  PlanNode node = SortClaimNode(OrderSpec{{ColumnId(0, 0)}});
  OrderCheckOp check(std::make_unique<RowSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  Drain(&check);
  ASSERT_FALSE(guard.ok());
  EXPECT_NE(guard.status().message().find("order verification failed"),
            std::string::npos)
      << guard.status().ToString();
  EXPECT_NE(guard.status().message().find("rows 2/3"), std::string::npos)
      << guard.status().ToString();
}

TEST(OrderCheckBatches, DescViolationWithinBatch) {
  std::vector<ColumnId> layout = {{0, 0}};
  std::vector<Row> rows = {{Value::Int(5)}, {Value::Int(5)}, {Value::Int(4)},
                           {Value::Int(6)}};
  RuntimeMetrics m;
  QueryGuard guard;
  ExecContext ctx(&m, &guard, nullptr);
  ctx.batch_rows = 1024;  // one batch: all pairs are within-batch
  PlanNode node = SortClaimNode(
      OrderSpec{{ColumnId(0, 0), SortDirection::kDescending}});
  OrderCheckOp check(std::make_unique<RowSource>(layout, rows, ctx), node,
                     ctx);
  guard.Arm();
  Drain(&check);
  ASSERT_FALSE(guard.ok());
  EXPECT_NE(guard.status().message().find("order verification failed"),
            std::string::npos)
      << guard.status().ToString();
}

}  // namespace
}  // namespace ordopt
