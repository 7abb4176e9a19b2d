// Tests for the vectorized execution layer: RowBatch invariants, the
// normalized sort-key encoding (memcmp order must reproduce Value::Compare
// per type class, including directions and NULLs), batch expression
// evaluation edge cases, and the batch-size differential over golden
// queries (every size, 1 included, must produce an identical row stream).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "exec/row_batch.h"
#include "exec/sort_key.h"
#include "query_test_util.h"

namespace ordopt {
namespace {

// --- RowBatch invariants ---------------------------------------------------

Row MixedRow(int64_t a, const char* b, bool b_null) {
  Row row;
  row.push_back(Value::Int(a));
  row.push_back(b_null ? Value::Null() : Value::Str(b));
  return row;
}

TEST(RowBatch, AppendTracksNullBitmap) {
  RowBatch batch;
  batch.Reset(2, 4);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4);
  batch.AppendRow(MixedRow(1, "x", false));
  batch.AppendRow(MixedRow(2, "", true));
  batch.AppendRow(MixedRow(3, "y", false));
  ASSERT_EQ(batch.size(), 3);
  EXPECT_FALSE(batch.full());
  for (int64_t r = 0; r < batch.size(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      EXPECT_EQ(batch.IsNull(c, r), batch.At(c, r).is_null())
          << "bitmap out of sync at (" << c << ", " << r << ")";
    }
  }
  EXPECT_TRUE(batch.IsNull(1, 1));
  EXPECT_FALSE(batch.IsNull(1, 2));
  batch.AppendRow(MixedRow(4, "z", false));
  EXPECT_TRUE(batch.full());
}

TEST(RowBatch, TruncateClearsDroppedNullBits) {
  RowBatch batch;
  batch.Reset(1, 4);
  batch.AppendRow({Value::Int(1)});
  batch.AppendRow({Value::Null()});
  batch.Truncate(1);
  ASSERT_EQ(batch.size(), 1);
  // Appending a non-NULL at the position that used to hold a NULL must not
  // inherit the old bit.
  batch.AppendRow({Value::Int(2)});
  EXPECT_FALSE(batch.IsNull(0, 1));
  EXPECT_EQ(batch.At(0, 1).AsInt(), 2);
}

TEST(RowBatch, ColumnarFillAndTakeRowRoundTrip) {
  RowBatch batch;
  batch.Reset(2, 2);
  batch.AppendColumnValue(0, Value::Int(10));
  batch.AppendColumnValue(0, Value::Null());
  batch.AppendColumnValue(1, Value::Str("p"));
  batch.AppendColumnValue(1, Value::Str("q"));
  batch.SetRowCount(2);
  EXPECT_TRUE(batch.IsNull(0, 1));
  Row row = batch.TakeRow(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_EQ(row[1].AsString(), "q");
}

TEST(RowBatch, ResetReusesShapeAndClearsRows) {
  RowBatch batch;
  batch.Reset(1, 2);
  batch.AppendRow({Value::Null()});
  batch.Reset(1, 2);
  EXPECT_TRUE(batch.empty());
  batch.AppendRow({Value::Int(7)});
  EXPECT_FALSE(batch.IsNull(0, 0));
}

// The exchange's run move: a partial range appends column-wise after the
// rows already there (NULL bits included, unlisted columns dropped); a
// whole batch into an empty one swaps its column storage.
TEST(RowBatch, MoveRangeFromAppendsOrSwapsSelectedColumns) {
  RowBatch src;
  src.Reset(3, 8);
  for (int64_t i = 0; i < 5; ++i) {
    src.AppendRow({Value::Int(100 + i), Value::Int(i),
                   i % 2 == 0 ? Value::Null() : Value::Str("s")});
  }
  const std::vector<size_t> cols = {2, 0};  // drop column 1, reorder
  RowBatch out;
  out.Reset(2, 8);
  out.AppendRow({Value::Str("head"), Value::Int(-1)});
  out.MoveRangeFrom(&src, cols, 1, 4);
  ASSERT_EQ(out.size(), 4);
  EXPECT_EQ(out.At(1, 0).AsInt(), -1);
  for (int64_t r = 1; r < 4; ++r) {
    EXPECT_EQ(out.At(1, r).AsInt(), 100 + r);  // src rows 1..3
    EXPECT_EQ(out.IsNull(0, r), r % 2 == 0);
    EXPECT_EQ(out.At(0, r).is_null(), r % 2 == 0);
  }

  RowBatch whole;
  whole.Reset(3, 8);
  for (int64_t i = 0; i < 3; ++i) {
    whole.AppendRow({Value::Int(i), Value::Int(7), Value::Null()});
  }
  RowBatch swapped;
  swapped.Reset(2, 8);
  swapped.MoveRangeFrom(&whole, cols, 0, 3);
  ASSERT_EQ(swapped.size(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(swapped.IsNull(0, r));
    EXPECT_EQ(swapped.At(1, r).AsInt(), r);
  }
  swapped.AppendRow({Value::Str("tail"), Value::Int(3)});  // still appendable
  EXPECT_EQ(swapped.size(), 4);
  EXPECT_FALSE(swapped.IsNull(0, 3));
}

// --- Normalized sort keys --------------------------------------------------

int SignOf(int64_t c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

std::string Encode(const Value& v, bool desc) {
  std::string out;
  AppendNormalizedKeyColumn(v, desc, &out);
  return out;
}

// memcmp order of the encodings; std::string::compare is unsigned-byte
// lexicographic, which is exactly what the sort comparator does.
int EncodedCompare(const Value& a, const Value& b, bool desc) {
  return SignOf(Encode(a, desc).compare(Encode(b, desc)));
}

// For every pair in `pool` and both directions, the encoding's memcmp order
// must equal Value::Compare (negated wholesale under DESC, NULLs included —
// matching the row comparator's `cmp = -cmp`).
void ExpectEncodingMatchesCompare(const std::vector<Value>& pool) {
  for (const Value& a : pool) {
    for (const Value& b : pool) {
      const int expected = SignOf(a.Compare(b));
      EXPECT_EQ(EncodedCompare(a, b, false), expected)
          << a.ToString() << " vs " << b.ToString() << " ASC";
      EXPECT_EQ(EncodedCompare(a, b, true), -expected)
          << a.ToString() << " vs " << b.ToString() << " DESC";
    }
  }
}

TEST(NormalizedKey, IntegersExactIncludingExtremes) {
  ExpectEncodingMatchesCompare(
      {Value::Null(), Value::Int(std::numeric_limits<int64_t>::min()),
       Value::Int(std::numeric_limits<int64_t>::min() + 1),
       Value::Int(-1000000007), Value::Int(-2), Value::Int(-1), Value::Int(0),
       Value::Int(1), Value::Int(2), Value::Int(1LL << 52),
       Value::Int((1LL << 53) + 1),
       Value::Int(std::numeric_limits<int64_t>::max() - 1),
       Value::Int(std::numeric_limits<int64_t>::max())});
}

TEST(NormalizedKey, DoublesIncludingZerosAndInfinities) {
  const double inf = std::numeric_limits<double>::infinity();
  ExpectEncodingMatchesCompare(
      {Value::Null(), Value::Double(-inf), Value::Double(-1e300),
       Value::Double(-2.5), Value::Double(-1.0), Value::Double(-0.0),
       Value::Double(0.0), Value::Double(0.5), Value::Double(1.0),
       Value::Double(2.5), Value::Double(1e300), Value::Double(inf)});
}

TEST(NormalizedKey, MixedNumericsMatchCompareBelow2Pow53) {
  // int 3 and double 3.0 must encode identically — Value::Compare treats
  // them as equal, and sort stability depends on ties staying ties.
  EXPECT_EQ(Encode(Value::Int(3), false), Encode(Value::Double(3.0), false));
  ExpectEncodingMatchesCompare(
      {Value::Null(), Value::Int(-5), Value::Double(-5.0),
       Value::Double(-4.5), Value::Int(0), Value::Double(0.0),
       Value::Double(0.5), Value::Int(3), Value::Double(3.0),
       Value::Double(3.5), Value::Int(4), Value::Int(1LL << 50),
       Value::Double(static_cast<double>(1LL << 50))});
}

TEST(NormalizedKey, Dates) {
  ExpectEncodingMatchesCompare({Value::Null(), Value::Date(-1), Value::Date(0),
                                Value::Date(1), Value::Date(20000),
                                Value::Int(20000)});
}

TEST(NormalizedKey, StringsWithEmbeddedZerosAndPrefixes) {
  ExpectEncodingMatchesCompare(
      {Value::Null(), Value::Str(""), Value::Str(std::string("\0", 1)),
       Value::Str(std::string("\0\0", 2)), Value::Str("a"),
       Value::Str(std::string("a\0", 2)), Value::Str(std::string("a\0b", 3)),
       Value::Str("a\1"), Value::Str("aa"), Value::Str("ab"),
       Value::Str("b")});
}

TEST(NormalizedKey, MultiColumnKeysConcatenateAndMatchRowOrder) {
  // Two-column key (a ASC, b DESC): encoded order must match the row
  // comparator's column-major compare with the DESC flip on b.
  std::vector<Row> rows = {
      {Value::Int(1), Value::Str("x")},  {Value::Int(1), Value::Str("y")},
      {Value::Int(1), Value::Null()},    {Value::Int(2), Value::Str("a")},
      {Value::Null(), Value::Str("z")},  {Value::Int(2), Value::Null()},
  };
  const std::vector<int> positions = {0, 1};
  const std::vector<bool> descending = {false, true};
  auto row_compare = [&](const Row& a, const Row& b) {
    for (size_t i = 0; i < positions.size(); ++i) {
      int c = a[positions[i]].Compare(b[positions[i]]);
      if (descending[i]) c = -c;
      if (c != 0) return SignOf(c);
    }
    return 0;
  };
  auto encode = [&](const Row& row) {
    std::string key;
    AppendNormalizedKey(row, positions, descending, &key);
    return key;
  };
  for (const Row& a : rows) {
    for (const Row& b : rows) {
      EXPECT_EQ(SignOf(encode(a).compare(encode(b))), row_compare(a, b));
    }
  }
  // The batch variant must produce byte-identical keys.
  RowBatch batch;
  batch.Reset(2, static_cast<int64_t>(rows.size()));
  for (const Row& row : rows) batch.AppendRow(row);
  for (int64_t r = 0; r < batch.size(); ++r) {
    std::string from_batch;
    AppendNormalizedKey(batch, r, positions, descending, &from_batch);
    EXPECT_EQ(from_batch, encode(rows[static_cast<size_t>(r)]));
  }
}

// --- Batch expression evaluation -------------------------------------------

Predicate ColCmpConst(ColumnId col, BinOp op, Value constant) {
  BoundExpr e = BoundExpr::Binary(
      op, BoundExpr::Column(col, DataType::kInt64, "c"),
      BoundExpr::Literal(std::move(constant)), DataType::kInt64);
  return ClassifyPredicate(std::move(e));
}

SelectionVector DenseSel(int64_t n) {
  SelectionVector sel;
  for (int64_t i = 0; i < n; ++i) sel.push_back(static_cast<int32_t>(i));
  return sel;
}

RowBatch IntBatch(const std::vector<Value>& col0) {
  RowBatch batch;
  batch.Reset(1, static_cast<int64_t>(col0.size()) + 2);  // a "tail" batch
  for (const Value& v : col0) batch.AppendRow({v});
  return batch;
}

TEST(BatchExprEval, NullsNeverSurviveSelection) {
  const std::vector<ColumnId> layout = {{0, 0}};
  ExprEvaluator eval(layout);
  RowBatch batch = IntBatch({Value::Int(1), Value::Null(), Value::Int(10),
                             Value::Null(), Value::Int(4)});
  SelectionVector sel = DenseSel(batch.size());
  eval.FilterBatch(ColCmpConst({0, 0}, BinOp::kGt, Value::Int(2)), batch,
                   &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 4}));
  // <> keeps non-matching non-NULLs only: NULL <> 3 is NULL, not true.
  sel = DenseSel(batch.size());
  eval.FilterBatch(ColCmpConst({0, 0}, BinOp::kNe, Value::Int(1)), batch,
                   &sel);
  EXPECT_EQ(sel, (SelectionVector{2, 4}));
}

TEST(BatchExprEval, NullConstantClearsSelection) {
  const std::vector<ColumnId> layout = {{0, 0}};
  ExprEvaluator eval(layout);
  RowBatch batch = IntBatch({Value::Int(1), Value::Int(2)});
  SelectionVector sel = DenseSel(batch.size());
  eval.FilterBatch(ColCmpConst({0, 0}, BinOp::kEq, Value::Null()), batch,
                   &sel);
  EXPECT_TRUE(sel.empty());
}

TEST(BatchExprEval, EmptyBatch) {
  const std::vector<ColumnId> layout = {{0, 0}};
  ExprEvaluator eval(layout);
  RowBatch batch;
  batch.Reset(1, 8);
  SelectionVector sel;
  eval.FilterBatch(ColCmpConst({0, 0}, BinOp::kGt, Value::Int(0)), batch,
                   &sel);
  EXPECT_TRUE(sel.empty());
  RowBatch out;
  out.Reset(1, 8);
  eval.EvalColumn(BoundExpr::Literal(Value::Int(1)), batch, &out, 0);
  out.SetRowCount(batch.size());
  EXPECT_TRUE(out.empty());
}

TEST(BatchExprEval, ColVsColSkipsNullSides) {
  const std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  ExprEvaluator eval(layout);
  RowBatch batch;
  batch.Reset(2, 4);
  batch.AppendRow({Value::Int(1), Value::Int(1)});
  batch.AppendRow({Value::Null(), Value::Int(2)});
  batch.AppendRow({Value::Int(3), Value::Null()});
  batch.AppendRow({Value::Int(4), Value::Int(4)});
  BoundExpr e = BoundExpr::Binary(
      BinOp::kEq, BoundExpr::Column({0, 0}, DataType::kInt64, "a"),
      BoundExpr::Column({0, 1}, DataType::kInt64, "b"), DataType::kInt64);
  SelectionVector sel = DenseSel(batch.size());
  eval.FilterBatch(ClassifyPredicate(std::move(e)), batch, &sel);
  EXPECT_EQ(sel, (SelectionVector{0, 3}));
}

TEST(BatchExprEval, GenericPredicateFoldsNullToFalse) {
  const std::vector<ColumnId> layout = {{0, 0}, {0, 1}};
  ExprEvaluator eval(layout);
  RowBatch batch;
  batch.Reset(2, 8);
  batch.AppendRow({Value::Int(1), Value::Int(5)});
  batch.AppendRow({Value::Null(), Value::Int(9)});
  batch.AppendRow({Value::Int(4), Value::Int(1)});
  batch.AppendRow({Value::Int(2), Value::Null()});
  batch.AppendRow({Value::Int(7), Value::Int(7)});
  // (a + b) > 6 classifies as generic (arithmetic on the left side).
  BoundExpr sum = BoundExpr::Binary(
      BinOp::kAdd, BoundExpr::Column({0, 0}, DataType::kInt64, "a"),
      BoundExpr::Column({0, 1}, DataType::kInt64, "b"), DataType::kInt64);
  BoundExpr e = BoundExpr::Binary(BinOp::kGt, std::move(sum),
                                  BoundExpr::Literal(Value::Int(6)),
                                  DataType::kInt64);
  Predicate pred = ClassifyPredicate(std::move(e));
  SelectionVector sel = DenseSel(batch.size());
  eval.FilterBatch(pred, batch, &sel);
  // 6 > 6 fails, a NULL operand makes the sum NULL, 5 > 6 fails.
  EXPECT_EQ(sel, (SelectionVector{4}));
}

TEST(BatchExprEval, EvalColumnPropagatesNullsIntoBitmap) {
  const std::vector<ColumnId> layout = {{0, 0}};
  ExprEvaluator eval(layout);
  RowBatch batch = IntBatch({Value::Int(1), Value::Null(), Value::Int(3)});
  RowBatch out;
  out.Reset(2, batch.size());
  // Column copy and a computed expression (col * 2, NULL in -> NULL out).
  eval.EvalColumn(BoundExpr::Column({0, 0}, DataType::kInt64, "c"), batch,
                  &out, 0);
  BoundExpr twice = BoundExpr::Binary(
      BinOp::kMul, BoundExpr::Column({0, 0}, DataType::kInt64, "c"),
      BoundExpr::Literal(Value::Int(2)), DataType::kInt64);
  eval.EvalColumn(twice, batch, &out, 1);
  out.SetRowCount(batch.size());
  EXPECT_FALSE(out.IsNull(0, 0));
  EXPECT_TRUE(out.IsNull(0, 1));
  EXPECT_TRUE(out.IsNull(1, 1));
  EXPECT_EQ(out.At(1, 2).AsInt(), 6);
}

// --- Batch-vs-row differential over golden queries -------------------------

// Every batch size must produce an identical row stream (values AND order);
// batch size 1 is the row-at-a-time reference. verify_orders keeps the order
// checker active at every batch granularity.
TEST(BatchVsRow, GoldenQueriesRowIdenticalAcrossBatchSizes) {
  Database db;
  BuildToyDatabase(&db);
  const char* kQueries[] = {
      "select eno, salary from emp order by salary, eno",
      "select eno, salary from emp order by salary desc, eno desc",
      "select dno, count(*) as c from emp group by dno order by dno",
      "select distinct dno from emp order by dno desc",
      "select e.eno, d.dname from emp e, dept d where e.dno = d.dno "
      "order by d.dname, e.eno",
      "select e.eno, t.hours from emp e left join task t on e.eno = t.eno "
      "order by e.eno",
      "select eno from emp where salary > 100 order by eno limit 7",
      "select dno from dept where dno < 6 union all "
      "select dno from emp where dno > 8 order by dno",
      "select salary from emp union select budget from dept "
      "order by salary desc",
  };
  const int64_t kBatchSizes[] = {1024, 1, 3, 7};
  for (const char* sql : kQueries) {
    SCOPED_TRACE(sql);
    std::vector<Row> baseline;
    int64_t baseline_spill_runs = 0;
    for (size_t i = 0; i < 4; ++i) {
      OptimizerConfig config;
      config.batch_rows = kBatchSizes[i];
      config.verify_orders = true;
      // A tiny sort budget makes every sort a genuine external merge, so
      // the differential also pins spill behavior per batch size.
      config.cost_params.sort_memory_rows = 5;
      QueryEngine engine(&db, config);
      auto run = engine.Run(sql);
      const char* mode = "batch";
      ASSERT_TRUE(run.ok()) << mode << "=" << kBatchSizes[i] << ": "
                            << run.status().ToString();
      if (i == 0) {
        baseline = run.value().rows;
        baseline_spill_runs = run.value().metrics.spill_runs;
      } else {
        EXPECT_EQ(run.value().rows, baseline)
            << mode << "=" << kBatchSizes[i] << " diverged; plan:\n"
            << run.value().plan_text;
        EXPECT_EQ(run.value().metrics.spill_runs, baseline_spill_runs)
            << mode << "=" << kBatchSizes[i] << " changed spill behavior";
      }
    }
  }
}

// ExecutePlan keeps its row_shim parameter slot for positional callers, but
// the row-at-a-time mode is gone: asking for it fails instead of silently
// running the batch path.
TEST(BatchVsRow, RowShimArgumentIsRejected) {
  Database db;
  BuildToyDatabase(&db);
  QueryEngine engine(&db);
  auto planned = engine.Explain("select eno from emp order by eno");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  for (bool row_shim : {true, false}) {
    RuntimeMetrics metrics;
    auto rows = ExecutePlan(planned.value().plan, &metrics, nullptr, nullptr,
                            nullptr, /*verify_orders=*/false, kDefaultBatchRows,
                            row_shim);
    if (row_shim) {
      ASSERT_FALSE(rows.ok());
      EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(metrics.rows_produced, 0);
    } else {
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(rows.value().size(), 200u);
    }
  }
}

}  // namespace
}  // namespace ordopt
