#include "qgm/bound_expr.h"

namespace ordopt {

BoundExpr BoundExpr::Column(ColumnId col, DataType type, std::string name) {
  BoundExpr e;
  e.kind_ = Kind::kColumn;
  e.type_ = type;
  e.column_ = col;
  e.column_name_ = std::move(name);
  return e;
}

BoundExpr BoundExpr::Literal(Value v, int slot) {
  BoundExpr e;
  e.kind_ = Kind::kLiteral;
  e.type_ = v.type();
  e.literal_ = std::move(v);
  e.slot_ = slot;
  e.has_slots_ = slot >= 0;
  return e;
}

BoundExpr BoundExpr::Binary(BinOp op, BoundExpr left, BoundExpr right,
                            DataType type) {
  BoundExpr e;
  e.kind_ = Kind::kBinary;
  e.type_ = type;
  e.op_ = op;
  e.has_slots_ = left.has_slots_ || right.has_slots_;
  e.left_ = std::make_shared<const BoundExpr>(std::move(left));
  e.right_ = std::make_shared<const BoundExpr>(std::move(right));
  return e;
}

BoundExpr BoundExpr::IsNull(BoundExpr child, bool negated) {
  BoundExpr e;
  e.kind_ = Kind::kIsNull;
  e.type_ = DataType::kInt64;
  e.is_null_negated_ = negated;
  e.has_slots_ = child.has_slots_;
  e.left_ = std::make_shared<const BoundExpr>(std::move(child));
  return e;
}

void BoundExpr::CollectColumns(ColumnSet* out) const {
  switch (kind_) {
    case Kind::kColumn:
      out->Add(column_);
      break;
    case Kind::kLiteral:
      break;
    case Kind::kBinary:
      left_->CollectColumns(out);
      right_->CollectColumns(out);
      break;
    case Kind::kIsNull:
      left_->CollectColumns(out);
      break;
  }
}

bool BoundExpr::Equals(const BoundExpr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kColumn:
      return column_ == other.column_;
    case Kind::kLiteral:
      return literal_.type() == other.literal_.type() &&
             literal_ == other.literal_;
    case Kind::kBinary:
      return op_ == other.op_ && left_->Equals(*other.left_) &&
             right_->Equals(*other.right_);
    case Kind::kIsNull:
      return is_null_negated_ == other.is_null_negated_ &&
             left_->Equals(*other.left_);
  }
  return false;
}

BoundExpr BoundExpr::Clone() const { return *this; }

BoundExpr BoundExpr::BindSlots(const std::vector<Value>& values) const {
  BoundExpr e = *this;
  if (!has_slots_) return e;
  if (kind_ == Kind::kLiteral) {
    e.literal_ = values[static_cast<size_t>(slot_)];
    e.type_ = e.literal_.type();
    return e;
  }
  // kBinary or kIsNull: rebuild only the children that hold a slot.
  if (left_->has_slots_) {
    e.left_ = std::make_shared<const BoundExpr>(left_->BindSlots(values));
  }
  if (right_ != nullptr && right_->has_slots_) {
    e.right_ = std::make_shared<const BoundExpr>(right_->BindSlots(values));
  }
  return e;
}

std::string BoundExpr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_name_.empty() ? DefaultColumnName(column_) : column_name_;
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kBinary:
      return "(" + left_->ToString() + " " + BinOpName(op_) + " " +
             right_->ToString() + ")";
    case Kind::kIsNull:
      return "(" + left_->ToString() +
             (is_null_negated_ ? " is not null)" : " is null)");
  }
  return "?";
}

}  // namespace ordopt
