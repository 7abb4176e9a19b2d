#ifndef ORDOPT_QGM_BOUND_EXPR_H_
#define ORDOPT_QGM_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/column_id.h"
#include "common/value.h"
#include "parser/ast.h"

namespace ordopt {

/// A type-checked expression whose column references are resolved to
/// ColumnIds. Aggregates never appear here: after binding, an aggregate is
/// computed by a GROUP BY box and everything above it references the
/// aggregate's output column like any other column.
class BoundExpr {
 public:
  enum class Kind { kColumn, kLiteral, kBinary, kIsNull };

  BoundExpr() = default;

  static BoundExpr Column(ColumnId col, DataType type, std::string name);
  /// `slot` is the literal's parameter slot (Expr::slot), -1 for none.
  static BoundExpr Literal(Value v, int slot = -1);
  static BoundExpr Binary(BinOp op, BoundExpr left, BoundExpr right,
                          DataType type);
  static BoundExpr IsNull(BoundExpr child, bool negated);

  Kind kind() const { return kind_; }
  DataType type() const { return type_; }

  /// kColumn accessors.
  const ColumnId& column() const { return column_; }
  bool IsColumn() const { return kind_ == Kind::kColumn; }

  /// kLiteral accessors.
  const Value& literal() const { return literal_; }
  int slot() const { return slot_; }

  /// True when a slotted literal occurs anywhere in this expression.
  bool has_slots() const { return has_slots_; }

  /// kBinary accessors.
  BinOp op() const { return op_; }
  const BoundExpr& left() const { return *left_; }
  const BoundExpr& right() const { return *right_; }

  /// kIsNull accessors (the tested child is stored in left_).
  const BoundExpr& is_null_child() const { return *left_; }
  bool is_null_negated() const { return is_null_negated_; }

  /// Adds every referenced ColumnId to `out`.
  void CollectColumns(ColumnSet* out) const;

  /// Structural equality (used to match ORDER BY items to select items
  /// and to share identical aggregates). Literals compare by value, never
  /// by slot.
  bool Equals(const BoundExpr& other) const;

  /// Deep copy (slots included).
  BoundExpr Clone() const;

  /// A copy in which every slotted literal holds `values[slot]`. Subtrees
  /// without slots stay shared with this expression.
  BoundExpr BindSlots(const std::vector<Value>& values) const;

  /// Display text (column names as recorded at bind time).
  std::string ToString() const;

 private:
  // The small fields share padding, so the slot costs no space.
  Kind kind_ = Kind::kLiteral;
  DataType type_ = DataType::kNull;
  bool is_null_negated_ = false;
  bool has_slots_ = false;
  ColumnId column_;
  std::string column_name_;
  Value literal_;
  BinOp op_ = BinOp::kAdd;
  int slot_ = -1;
  std::shared_ptr<const BoundExpr> left_;   // shared: cheap clone
  std::shared_ptr<const BoundExpr> right_;
};

}  // namespace ordopt

#endif  // ORDOPT_QGM_BOUND_EXPR_H_
