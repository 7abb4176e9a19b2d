#ifndef ORDOPT_ORDEROPT_FD_H_
#define ORDOPT_ORDEROPT_FD_H_

#include <string>
#include <vector>

#include "common/column_id.h"
#include "orderopt/equivalence.h"
#include "orderopt/order_spec.h"

namespace ordopt {

/// A functional dependency head -> tail (§4.1): any two records agreeing on
/// every head column also agree on every tail column. Head and tail are
/// ColumnSet bitsets, so the membership tests below are word operations. Keys are stored as
/// FDs whose tail is the full column list of their stream; `col = const`
/// predicates are *not* stored here — they live in EquivalenceClasses and
/// are treated as empty-headed FDs by the membership tests.
struct FunctionalDependency {
  ColumnSet head;
  ColumnSet tail;

  FunctionalDependency() = default;
  FunctionalDependency(ColumnSet h, ColumnSet t)
      : head(std::move(h)), tail(std::move(t)) {}

  friend bool operator==(const FunctionalDependency&,
                         const FunctionalDependency&) = default;

  std::string ToString(const ColumnNamer& namer = nullptr) const;
};

/// A set of functional dependencies attached to a stream, interpreted
/// modulo an EquivalenceClasses instance: every membership test maps
/// columns through their equivalence-class head, and constant-bound columns
/// behave as determined by the empty set ({} -> {c}, the "empty-headed FD"
/// of §4.1 / [DD92]).
class FDSet {
 public:
  FDSet() = default;

  /// Adds head -> tail. No-op if tail ⊆ head (trivial).
  void Add(ColumnSet head, ColumnSet tail);

  /// Adds a key FD: `key` determines every column in `all_columns`
  /// (callers pass the column list of the key's stream).
  void AddKey(const ColumnSet& key, const ColumnSet& all_columns);

  size_t size() const { return fds_.size(); }
  bool empty() const { return fds_.empty(); }
  const std::vector<FunctionalDependency>& fds() const { return fds_; }

  /// The paper's §4.1 test: B -> {c} iff c ∈ B, or c is constant-bound, or
  /// some stored FD B' -> C has B' ⊆ B (after dropping constant-bound head
  /// columns) and c ∈ C. This is the "simple subset operation" the paper
  /// uses — deliberately not transitive.
  bool Determines(const ColumnSet& b, const ColumnId& c,
                  const EquivalenceClasses& eq) const;

  /// Transitive variant: c ∈ Closure(B). Strictly more powerful; exposed so
  /// reduction can run in either fidelity mode.
  bool DeterminesTransitive(const ColumnSet& b, const ColumnId& c,
                            const EquivalenceClasses& eq) const;

  /// Fixpoint closure of `b` under the stored FDs, modulo equivalence:
  /// the result contains the head of every determined column (plus all
  /// constant-bound columns known to `eq`).
  ColumnSet Closure(const ColumnSet& b, const EquivalenceClasses& eq) const;

  /// Merges another stream's FDs (used at joins).
  void MergeFrom(const FDSet& other);

  std::string ToString(const ColumnNamer& namer = nullptr) const;

 private:
  std::vector<FunctionalDependency> fds_;
};

}  // namespace ordopt

#endif  // ORDOPT_ORDEROPT_FD_H_
