#include "qgm/predicate.h"

namespace ordopt {

namespace {

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

// Flips the comparison when operands are swapped (const <op> col form).
BinOp Mirror(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

}  // namespace

Predicate Predicate::BindSlots(const std::vector<Value>& values) const {
  Predicate p = *this;
  p.expr = expr.BindSlots(values);
  if (constant_slot >= 0) {
    p.constant = values[static_cast<size_t>(constant_slot)];
  }
  return p;
}

Predicate ClassifyPredicate(BoundExpr conjunct) {
  Predicate p;
  conjunct.CollectColumns(&p.referenced);

  if (conjunct.kind() == BoundExpr::Kind::kBinary &&
      IsComparison(conjunct.op())) {
    const BoundExpr& l = conjunct.left();
    const BoundExpr& r = conjunct.right();
    if (l.IsColumn() && r.IsColumn()) {
      p.left_col = l.column();
      p.right_col = r.column();
      p.cmp = conjunct.op();
      p.kind = conjunct.op() == BinOp::kEq ? Predicate::Kind::kColEqCol
                                           : Predicate::Kind::kColCmpCol;
      p.default_selectivity = conjunct.op() == BinOp::kEq ? 0.1 : 0.3;
    } else if (l.IsColumn() && r.kind() == BoundExpr::Kind::kLiteral) {
      p.left_col = l.column();
      p.constant = r.literal();
      p.constant_slot = r.slot();
      p.cmp = conjunct.op();
      p.kind = conjunct.op() == BinOp::kEq ? Predicate::Kind::kColEqConst
                                           : Predicate::Kind::kColCmpConst;
      p.default_selectivity = conjunct.op() == BinOp::kEq ? 0.05 : 0.33;
    } else if (r.IsColumn() && l.kind() == BoundExpr::Kind::kLiteral) {
      p.left_col = r.column();
      p.constant = l.literal();
      p.constant_slot = l.slot();
      p.cmp = Mirror(conjunct.op());
      p.kind = conjunct.op() == BinOp::kEq ? Predicate::Kind::kColEqConst
                                           : Predicate::Kind::kColCmpConst;
      p.default_selectivity = conjunct.op() == BinOp::kEq ? 0.05 : 0.33;
    } else {
      p.kind = Predicate::Kind::kGeneric;
      p.default_selectivity = 0.25;
    }
  } else {
    p.kind = Predicate::Kind::kGeneric;
    p.default_selectivity = 0.25;
  }
  p.expr = std::move(conjunct);
  return p;
}

}  // namespace ordopt
