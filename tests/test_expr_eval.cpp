// Expression evaluation tests: arithmetic, comparisons, NULL propagation,
// SQL-to-two-valued folding, layout binding.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "exec/expr_eval.h"
#include "exec/query_guard.h"

namespace ordopt {
namespace {

// A one-row batch holding `row`.
RowBatch OneRow(const Row& row) {
  RowBatch batch;
  batch.Reset(row.size(), 1);
  for (size_t c = 0; c < row.size(); ++c) batch.AppendColumnValue(c, row[c]);
  batch.SetRowCount(1);
  return batch;
}

TEST(EvalBinary, IntegerArithmetic) {
  EXPECT_EQ(EvalBinary(BinOp::kAdd, Value::Int(2), Value::Int(3))->AsInt(), 5);
  EXPECT_EQ(EvalBinary(BinOp::kSub, Value::Int(2), Value::Int(3))->AsInt(),
            -1);
  EXPECT_EQ(EvalBinary(BinOp::kMul, Value::Int(4), Value::Int(3))->AsInt(),
            12);
}

TEST(EvalBinary, IntegerOverflowIsNotAValue) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_FALSE(
      EvalBinary(BinOp::kAdd, Value::Int(kMax), Value::Int(1)).has_value());
  EXPECT_FALSE(
      EvalBinary(BinOp::kSub, Value::Int(kMin), Value::Int(1)).has_value());
  EXPECT_FALSE(
      EvalBinary(BinOp::kSub, Value::Int(0), Value::Int(kMin)).has_value());
  EXPECT_FALSE(EvalBinary(BinOp::kMul, Value::Int(int64_t{1} << 62),
                          Value::Int(2))
                   .has_value());
  EXPECT_FALSE(
      EvalBinary(BinOp::kMul, Value::Int(kMin), Value::Int(-1)).has_value());
  // A result of exactly INT64_MIN fits.
  EXPECT_EQ(EvalBinary(BinOp::kAdd, Value::Int(-kMax), Value::Int(-1))
                ->AsInt(),
            kMin);
  EXPECT_EQ(EvalBinary(BinOp::kSub, Value::Int(-kMax), Value::Int(1))
                ->AsInt(),
            kMin);
  EXPECT_EQ(EvalBinary(BinOp::kMul, Value::Int(-(int64_t{1} << 62)),
                       Value::Int(2))
                ->AsInt(),
            kMin);
  // Doubles do not overflow into an error.
  EXPECT_TRUE(EvalBinary(BinOp::kMul, Value::Double(1e308), Value::Int(10))
                  .has_value());
}

TEST(EvalBinary, MixedTypePromotion) {
  Value v = *EvalBinary(BinOp::kAdd, Value::Int(2), Value::Double(0.5));
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(EvalBinary, DivisionAlwaysDouble) {
  Value v = *EvalBinary(BinOp::kDiv, Value::Int(7), Value::Int(2));
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
  // Division by zero yields NULL, not a crash.
  EXPECT_TRUE(
      EvalBinary(BinOp::kDiv, Value::Int(1), Value::Int(0))->is_null());
}

TEST(EvalBinary, Comparisons) {
  EXPECT_EQ(EvalBinary(BinOp::kLt, Value::Int(1), Value::Int(2))->AsInt(), 1);
  EXPECT_EQ(EvalBinary(BinOp::kGe, Value::Int(1), Value::Int(2))->AsInt(), 0);
  EXPECT_EQ(EvalBinary(BinOp::kNe, Value::Str("a"), Value::Str("b"))->AsInt(),
            1);
  EXPECT_EQ(EvalBinary(BinOp::kEq, Value::Int(3), Value::Double(3.0))->AsInt(),
            1);
}

TEST(EvalBinary, NullPropagation) {
  EXPECT_TRUE(EvalBinary(BinOp::kAdd, Value::Null(), Value::Int(1))->is_null());
  EXPECT_TRUE(EvalBinary(BinOp::kEq, Value::Null(), Value::Null())->is_null());
  EXPECT_TRUE(EvalBinary(BinOp::kLt, Value::Int(1), Value::Null())->is_null());
}

TEST(EvalBinary, AndFoldsNullToFalse) {
  EXPECT_EQ(EvalBinary(BinOp::kAnd, Value::Int(1), Value::Int(1))->AsInt(), 1);
  EXPECT_EQ(EvalBinary(BinOp::kAnd, Value::Int(1), Value::Int(0))->AsInt(), 0);
  EXPECT_EQ(EvalBinary(BinOp::kAnd, Value::Null(), Value::Int(1))->AsInt(), 0);
}

TEST(ExprEvaluator, BindsColumnsByIdentity) {
  std::vector<ColumnId> layout = {{3, 1}, {0, 0}};
  ExprEvaluator eval(layout);
  EXPECT_EQ(eval.PositionOf({3, 1}), 0);
  EXPECT_EQ(eval.PositionOf({0, 0}), 1);
  EXPECT_EQ(eval.PositionOf({9, 9}), -1);

  BoundExpr e = BoundExpr::Binary(
      BinOp::kMul, BoundExpr::Column({0, 0}, DataType::kInt64, "a"),
      BoundExpr::Column({3, 1}, DataType::kInt64, "b"), DataType::kInt64);
  EXPECT_EQ(eval.EvalAt(e, OneRow({Value::Int(4), Value::Int(6)}), 0).AsInt(),
            24);
}

TEST(ExprEvaluator, PredicateNullIsFalse) {
  std::vector<ColumnId> layout = {{0, 0}};
  ExprEvaluator eval(layout);
  BoundExpr cmp = BoundExpr::Binary(
      BinOp::kGt, BoundExpr::Column({0, 0}, DataType::kInt64, "x"),
      BoundExpr::Literal(Value::Int(5)), DataType::kInt64);
  Predicate pred = ClassifyPredicate(std::move(cmp));
  SelectionVector sel = {0};
  eval.FilterBatch(pred, OneRow({Value::Null()}), &sel);
  EXPECT_TRUE(sel.empty());
  sel = {0};
  eval.FilterBatch(pred, OneRow({Value::Int(9)}), &sel);
  EXPECT_EQ(sel, SelectionVector{0});
}

TEST(ExprEvaluator, LiteralAndNested) {
  ExprEvaluator eval({});
  BoundExpr e = BoundExpr::Binary(
      BinOp::kSub,
      BoundExpr::Binary(BinOp::kMul, BoundExpr::Literal(Value::Int(3)),
                        BoundExpr::Literal(Value::Int(4)), DataType::kInt64),
      BoundExpr::Literal(Value::Int(2)), DataType::kInt64);
  EXPECT_EQ(eval.EvalAt(e, OneRow({}), 0).AsInt(), 10);
}

TEST(ExprEvaluator, OverflowPoisonsTheGuardWithOutOfRange) {
  QueryGuard guard;
  ExprEvaluator eval({{0, 0}}, &guard);
  BoundExpr sum = BoundExpr::Binary(
      BinOp::kAdd, BoundExpr::Column({0, 0}, DataType::kInt64, "x"),
      BoundExpr::Literal(Value::Int(1)), DataType::kInt64);
  EXPECT_EQ(eval.EvalAt(sum, OneRow({Value::Int(41)}), 0).AsInt(), 42);
  EXPECT_TRUE(guard.ok());
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(eval.EvalAt(sum, OneRow({Value::Int(max)}), 0).is_null());
  ASSERT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(guard.status().message().find("overflow"), std::string::npos)
      << guard.status().ToString();
}

}  // namespace
}  // namespace ordopt
