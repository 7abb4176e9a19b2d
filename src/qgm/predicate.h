#ifndef ORDOPT_QGM_PREDICATE_H_
#define ORDOPT_QGM_PREDICATE_H_

#include <string>

#include "qgm/bound_expr.h"

namespace ordopt {

/// One WHERE conjunct, classified into the shapes order optimization and
/// costing care about (§4.1: `col = const` yields an empty-headed FD,
/// `col = col` yields an equivalence class / join predicate).
struct Predicate {
  enum class Kind {
    kColEqCol,     ///< c1 = c2 — equivalence / equality join predicate
    kColEqConst,   ///< c = literal — constant binding
    kColCmpConst,  ///< c <op> literal, op in {<,<=,>,>=,<>}
    kColCmpCol,    ///< c1 <op> c2, non-equality
    kGeneric,      ///< anything else (kept for evaluation only)
  };

  Kind kind = Kind::kGeneric;
  BoundExpr expr;        ///< the full conjunct, used for evaluation
  ColumnSet referenced;  ///< all columns mentioned

  // Shape-specific fields (valid per `kind`).
  ColumnId left_col;
  ColumnId right_col;
  Value constant;
  int constant_slot = -1;  ///< parameter slot of `constant`, -1 for none
  BinOp cmp = BinOp::kEq;

  /// Default selectivity estimate by shape; refined by the cost model with
  /// statistics when available.
  double default_selectivity = 1.0;

  /// True when every referenced column is available from `cols`.
  bool AppliesWithin(const ColumnSet& cols) const {
    return referenced.IsSubsetOf(cols);
  }

  /// True when this is an equality join predicate connecting two different
  /// table instances.
  bool IsEquiJoin() const {
    return kind == Kind::kColEqCol && left_col.table != right_col.table;
  }

  std::string ToString() const { return expr.ToString(); }

  /// True when the conjunct holds a slotted literal.
  bool has_slots() const { return expr.has_slots(); }

  /// A copy whose slotted literals, `constant` included, hold the values
  /// `values[slot]`; shape, columns and estimates are unchanged.
  Predicate BindSlots(const std::vector<Value>& values) const;
};

/// Classifies a bound conjunct into a Predicate.
Predicate ClassifyPredicate(BoundExpr conjunct);

}  // namespace ordopt

#endif  // ORDOPT_QGM_PREDICATE_H_
