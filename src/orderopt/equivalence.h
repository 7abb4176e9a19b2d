#ifndef ORDOPT_ORDEROPT_EQUIVALENCE_H_
#define ORDOPT_ORDEROPT_EQUIVALENCE_H_

#include <optional>
#include <vector>

#include "common/column_id.h"
#include "common/value.h"

namespace ordopt {

/// Column equivalence classes plus column-to-constant bindings (§4.1).
///
/// `col = col` predicates merge two columns into one class; `col = const`
/// predicates bind a whole class to a constant. The designated *head* of a
/// class is its smallest ColumnId, which makes reduction deterministic
/// ("the equivalence class head is chosen from those columns made
/// equivalent by predicates already applied to the stream").
///
/// Kept as a flat vector of classes, each a ColumnSet bitset of its
/// members, so the head is the bitset's first member, a class test is one
/// word probe, and copying a stream's classes is one allocation. Constants
/// live on the class, so after merging {x,y} with x=10, y is constant-bound
/// too. Const members never mutate, so concurrent readers of a shared
/// (e.g. plan-cached) instance are safe.
class EquivalenceClasses {
 public:
  EquivalenceClasses() = default;

  /// Records `a = b` (both directions).
  void AddEquivalence(const ColumnId& a, const ColumnId& b);

  /// Records `col = value` (literal, host variable, or correlated column —
  /// anything constant for the duration of the stream, per §4.1).
  void AddConstant(const ColumnId& col, const Value& value);

  /// Canonical representative of col's class (smallest member). A column
  /// never seen by Add* is its own head.
  ColumnId Head(const ColumnId& col) const {
    const ColumnSet* members = ClassOf(col);
    return members == nullptr ? col : members->First();
  }

  /// True when the column's class is bound to a constant.
  bool IsConstant(const ColumnId& col) const {
    return constant_columns_.Contains(col);
  }

  /// The binding when IsConstant; nullopt otherwise.
  std::optional<Value> ConstantValue(const ColumnId& col) const;

  /// True if a and b are in the same class.
  bool AreEquivalent(const ColumnId& a, const ColumnId& b) const;

  /// The members of col's class; nullptr when col is in no class (its class
  /// is then {col}).
  const ColumnSet* ClassOf(const ColumnId& col) const {
    const Class* k = Find(col);
    return k == nullptr ? nullptr : &k->members;
  }

  /// True when some member of col's class is in `set`, i.e. Head(col) is
  /// among the heads of `set`'s columns.
  bool ClassMeets(const ColumnId& col, const ColumnSet& set) const {
    const ColumnSet* members = ClassOf(col);
    return members == nullptr ? set.Contains(col) : members->Intersects(set);
  }

  /// The first member of col's class that satisfies `visible` — col itself
  /// when visible, otherwise the smallest visible equivalent — or nullopt.
  /// Walks the class bitset without allocating; used wherever an order
  /// column must be re-expressed in columns a stream actually carries.
  template <typename Visible>
  std::optional<ColumnId> VisibleMember(const ColumnId& col,
                                        Visible&& visible) const {
    if (visible(col)) return col;
    const ColumnSet* members = ClassOf(col);
    if (members == nullptr) return std::nullopt;
    for (const ColumnId& m : *members) {
      if (visible(m)) return m;
    }
    return std::nullopt;
  }

  /// All known members of col's class (including col itself, even if never
  /// added). Order is deterministic (sorted).
  std::vector<ColumnId> ClassMembers(const ColumnId& col) const;

  /// All columns ever mentioned, sorted.
  std::vector<ColumnId> KnownColumns() const;

  /// Merges every class and constant binding from `other` into this.
  /// Used when joining two streams: the join output sees both sides'
  /// applied predicates.
  void MergeFrom(const EquivalenceClasses& other);

  /// Merges only the equivalence classes from `other`, dropping its
  /// constant bindings. Used across the null-supplying side of an outer
  /// join: `col = col` classes survive null-extension (two NULLs compare
  /// equal in the engine's total order), but `col = const` does not —
  /// null-extended rows hold NULL, not the constant.
  void MergeEquivalencesFrom(const EquivalenceClasses& other);

 private:
  struct Class {
    ColumnSet members;
    std::optional<Value> constant;
  };

  const Class* Find(const ColumnId& col) const {
    if (!known_.Contains(col)) return nullptr;
    for (const Class& k : classes_) {
      if (k.members.Contains(col)) return &k;
    }
    return nullptr;
  }
  // Index of col's class, creating the singleton {col} when unseen.
  size_t ClassIndex(const ColumnId& col);
  // Folds class `from` into class `into` (from != into) and erases `from`.
  // When both carry a constant they must agree at runtime; into's is kept.
  void Absorb(size_t into, size_t from);
  // Merges the class `members` (bound to `constant` when non-null) into
  // this partition.
  void MergeClass(const ColumnSet& members,
                  const std::optional<Value>* constant);

  std::vector<Class> classes_;
  ColumnSet known_;             ///< union of all classes
  ColumnSet constant_columns_;  ///< union of the constant-bound classes
};

}  // namespace ordopt

#endif  // ORDOPT_ORDEROPT_EQUIVALENCE_H_
