#include "exec/expr_eval.h"

#include "common/macros.h"
#include "common/str_util.h"
#include "exec/query_guard.h"

namespace ordopt {

ExprEvaluator::ExprEvaluator(const std::vector<ColumnId>& layout,
                             QueryGuard* guard)
    : guard_(guard) {
  for (size_t i = 0; i < layout.size(); ++i) {
    positions_.emplace(layout[i], static_cast<int>(i));
  }
}

int ExprEvaluator::PositionOf(const ColumnId& col) const {
  auto it = positions_.find(col);
  return it == positions_.end() ? -1 : it->second;
}

std::optional<Value> EvalBinary(BinOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinOp::kAnd: {
      // Two-valued folding: NULL acts as false.
      bool lt = !l.is_null() && l.Compare(Value::Int(0)) != 0;
      bool rt = !r.is_null() && r.Compare(Value::Int(0)) != 0;
      return Value::Int(lt && rt ? 1 : 0);
    }
    case BinOp::kOr: {
      bool lt = !l.is_null() && l.Compare(Value::Int(0)) != 0;
      bool rt = !r.is_null() && r.Compare(Value::Int(0)) != 0;
      return Value::Int(lt || rt ? 1 : 0);
    }
    default:
      break;
  }
  if (l.is_null() || r.is_null()) return Value::Null();
  switch (op) {
    case BinOp::kEq:
      return Value::Int(l.Compare(r) == 0 ? 1 : 0);
    case BinOp::kNe:
      return Value::Int(l.Compare(r) != 0 ? 1 : 0);
    case BinOp::kLt:
      return Value::Int(l.Compare(r) < 0 ? 1 : 0);
    case BinOp::kLe:
      return Value::Int(l.Compare(r) <= 0 ? 1 : 0);
    case BinOp::kGt:
      return Value::Int(l.Compare(r) > 0 ? 1 : 0);
    case BinOp::kGe:
      return Value::Int(l.Compare(r) >= 0 ? 1 : 0);
    case BinOp::kDiv: {
      double rv = r.AsDouble();
      if (rv == 0.0) return Value::Null();
      return Value::Double(l.AsDouble() / rv);
    }
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul: {
      bool both_int = l.type() == DataType::kInt64 &&
                      r.type() == DataType::kInt64;
      if (both_int) {
        int64_t a = l.AsInt(), b = r.AsInt();
        int64_t result = 0;
        bool overflow = false;
        switch (op) {
          case BinOp::kAdd:
            overflow = __builtin_add_overflow(a, b, &result);
            break;
          case BinOp::kSub:
            overflow = __builtin_sub_overflow(a, b, &result);
            break;
          default:
            overflow = __builtin_mul_overflow(a, b, &result);
            break;
        }
        if (overflow) return std::nullopt;
        return Value::Int(result);
      }
      double a = l.AsDouble(), b = r.AsDouble();
      switch (op) {
        case BinOp::kAdd:
          return Value::Double(a + b);
        case BinOp::kSub:
          return Value::Double(a - b);
        default:
          return Value::Double(a * b);
      }
    }
    default:
      break;
  }
  ORDOPT_CHECK_MSG(false, "unhandled binary op");
  return Value::Null();
}

Value ExprEvaluator::EvalAt(const BoundExpr& expr, const RowBatch& batch,
                            int64_t row) const {
  switch (expr.kind()) {
    case BoundExpr::Kind::kLiteral:
      return expr.literal();
    case BoundExpr::Kind::kColumn: {
      int pos = PositionOf(expr.column());
      if (pos < 0) {
        if (guard_ != nullptr) {
          guard_->Poison(Status::Internal(
              StrFormat("column %s not in row layout",
                        DefaultColumnName(expr.column()).c_str())));
          return Value::Null();
        }
        ORDOPT_CHECK_MSG(false, "column %s not in row layout",
                         DefaultColumnName(expr.column()).c_str());
      }
      return batch.At(static_cast<size_t>(pos), row);
    }
    case BoundExpr::Kind::kBinary: {
      Value l = EvalAt(expr.left(), batch, row);
      Value r = EvalAt(expr.right(), batch, row);
      std::optional<Value> v = EvalBinary(expr.op(), l, r);
      if (v.has_value()) return *std::move(v);
      Status overflow = Status::OutOfRange(StrFormat(
          "integer overflow: %s %s %s exceeds the int64 range",
          l.ToString().c_str(), BinOpName(expr.op()), r.ToString().c_str()));
      if (guard_ != nullptr) {
        guard_->Poison(std::move(overflow));
        return Value::Null();
      }
      ORDOPT_CHECK_MSG(false, "%s", overflow.ToString().c_str());
      return Value::Null();
    }
    case BoundExpr::Kind::kIsNull: {
      bool is_null = EvalAt(expr.is_null_child(), batch, row).is_null();
      return Value::Int(is_null != expr.is_null_negated() ? 1 : 0);
    }
  }
  return Value::Null();
}

namespace {
// True when three-way comparison result `c` satisfies comparison op `op`.
bool CompareSatisfied(BinOp op, int c) {
  switch (op) {
    case BinOp::kEq:
      return c == 0;
    case BinOp::kNe:
      return c != 0;
    case BinOp::kLt:
      return c < 0;
    case BinOp::kLe:
      return c <= 0;
    case BinOp::kGt:
      return c > 0;
    case BinOp::kGe:
      return c >= 0;
    default:
      ORDOPT_CHECK_MSG(false, "non-comparison op in classified predicate");
      return false;
  }
}
}  // namespace

void ExprEvaluator::FilterBatch(const Predicate& pred, const RowBatch& batch,
                                SelectionVector* sel) const {
  size_t kept = 0;
  switch (pred.kind) {
    case Predicate::Kind::kColEqConst:
    case Predicate::Kind::kColCmpConst: {
      // A NULL literal never satisfies a comparison under two-valued
      // folding, regardless of the column side.
      if (pred.constant.is_null()) {
        sel->clear();
        return;
      }
      const int pos = PositionOf(pred.left_col);
      if (pos < 0) break;  // planner bug; generic path poisons the guard
      for (int32_t idx : *sel) {
        if (batch.IsNull(static_cast<size_t>(pos), idx)) continue;
        const int c =
            batch.At(static_cast<size_t>(pos), idx).Compare(pred.constant);
        if (CompareSatisfied(pred.cmp, c)) (*sel)[kept++] = idx;
      }
      sel->resize(kept);
      return;
    }
    case Predicate::Kind::kColEqCol:
    case Predicate::Kind::kColCmpCol: {
      const int lpos = PositionOf(pred.left_col);
      const int rpos = PositionOf(pred.right_col);
      if (lpos < 0 || rpos < 0) break;
      for (int32_t idx : *sel) {
        if (batch.IsNull(static_cast<size_t>(lpos), idx) ||
            batch.IsNull(static_cast<size_t>(rpos), idx)) {
          continue;
        }
        const int c = batch.At(static_cast<size_t>(lpos), idx)
                          .Compare(batch.At(static_cast<size_t>(rpos), idx));
        if (CompareSatisfied(pred.cmp, c)) (*sel)[kept++] = idx;
      }
      sel->resize(kept);
      return;
    }
    case Predicate::Kind::kGeneric:
      break;
  }
  for (int32_t idx : *sel) {
    Value v = EvalAt(pred.expr, batch, idx);
    if (!v.is_null() && v.Compare(Value::Int(0)) != 0) (*sel)[kept++] = idx;
  }
  sel->resize(kept);
}

void ExprEvaluator::EvalColumn(const BoundExpr& expr, const RowBatch& batch,
                               RowBatch* out, size_t out_col) const {
  const int64_t n = batch.size();
  if (expr.kind() == BoundExpr::Kind::kLiteral) {
    for (int64_t i = 0; i < n; ++i) {
      out->AppendColumnValue(out_col, expr.literal());
    }
    return;
  }
  if (expr.kind() == BoundExpr::Kind::kColumn) {
    const int pos = PositionOf(expr.column());
    if (pos >= 0) {
      for (int64_t i = 0; i < n; ++i) {
        out->AppendColumnValue(out_col, batch.At(static_cast<size_t>(pos), i));
      }
      return;
    }
    // Missing column: let EvalAt poison the guard below.
  }
  for (int64_t i = 0; i < n; ++i) {
    out->AppendColumnValue(out_col, EvalAt(expr, batch, i));
  }
}

}  // namespace ordopt
