#ifndef ORDOPT_PROPERTIES_PLAN_PROPERTIES_H_
#define ORDOPT_PROPERTIES_PLAN_PROPERTIES_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "orderopt/equivalence.h"
#include "orderopt/fd.h"
#include "orderopt/key_property.h"
#include "orderopt/operations.h"
#include "orderopt/order_spec.h"
#include "qgm/predicate.h"
#include "storage/table.h"

namespace ordopt {

/// A relaxed atomic epoch that copies by value, so a struct holding one keeps
/// its implicit copy and move members. Copies load and store relaxed: they
/// transfer an identity, not a happens-before edge.
class RelaxedEpoch {
 public:
  RelaxedEpoch() = default;
  RelaxedEpoch(const RelaxedEpoch& o) : value_(o.load()) {}
  RelaxedEpoch& operator=(const RelaxedEpoch& o) {
    store(o.load());
    return *this;
  }

  uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  void store(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// On failure, loads the current value into `expected`.
  bool compare_exchange(uint64_t& expected, uint64_t desired) {
    return value_.compare_exchange_strong(expected, desired,
                                          std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

/// The unified property bundle of one candidate plan (§3, §5.2.1): the
/// visible columns, the physical order, the equivalence classes and
/// constants implied by applied predicates, the functional dependencies,
/// the key property, the cardinality estimate, and the estimated cost.
/// Every physical operator derives its output properties from its inputs
/// through the functions below; the planner compares candidates on
/// (cost, order) and reasons about orders through Context().
///
/// The equivalence classes and FDs are private because their content
/// defines the plan's *reduction context identity*: the first Context()
/// call stamps the current (eq, fds) content with a process-unique epoch,
/// and the ReduceCache memoizes Reduce/Test Order results keyed by that
/// epoch. Copies inherit the epoch (same content, same identity); any
/// mutation through mutable_eq()/mutable_fds() resets it, so a later
/// Context() re-stamps and stale cache entries are simply never hit.
class PlanProperties {
 public:
  PlanProperties() = default;

  ColumnSet columns;
  OrderSpec order;  ///< physical order; originates from index or sort
  KeyProperty keys;
  double cardinality = 0.0;
  double cost = 0.0;  ///< estimated cost of the subtree producing this stream

  const EquivalenceClasses& eq() const { return eq_; }
  const FDSet& fds() const { return fds_; }

  /// Mutable access to the predicate-derived state. Invalidates the cached
  /// context identity — call once and batch edits rather than interleaving
  /// with Context().
  EquivalenceClasses& mutable_eq() {
    epoch_.store(0);
    return eq_;
  }
  FDSet& mutable_fds() {
    epoch_.store(0);
    return fds_;
  }

  /// The reduction context for order operations over this stream, carrying
  /// the epoch that keys the ReduceCache. Lazily assigns a fresh epoch when
  /// the current content has none yet. The context borrows this bundle's
  /// classes and FDs: it must not outlive the bundle, and the bundle must
  /// not be mutated while it is in use.
  OrderContext Context(bool transitive_fds = false) const;

  /// One-record streams satisfy every order (§5.2.1).
  bool IsOneRecord() const { return keys.IsOneRecord(); }

  std::string ToString(const ColumnNamer& namer = nullptr) const;

 private:
  EquivalenceClasses eq_;
  FDSet fds_;
  /// Context identity of the current (eq_, fds_) content; 0 = unstamped.
  /// Mutable: stamping happens inside const Context(). Atomic with a CAS
  /// stamp so concurrent Context() calls on a shared (e.g. plan-cached)
  /// property bundle agree on one epoch without a data race; copies carry
  /// the stamped value (same content, same identity).
  mutable RelaxedEpoch epoch_;
};

/// Properties of a base-table access with instance id `table_id`: columns,
/// declared-key FDs and key property; order empty (heap) — index-scan order
/// is layered on by the caller.
PlanProperties BaseTableProperties(const Table& table, int table_id);

/// Applies one predicate: updates equivalence classes / constants, scales
/// cardinality by `selectivity`, and re-simplifies the key property (which
/// may collapse to the one-record condition, §5.2.1).
void ApplyPredicate(PlanProperties* props, const Predicate& pred,
                    double selectivity);

/// Properties of a join: merged equivalences and FDs, propagated keys
/// (n-to-1 analysis over `join_pairs`), concatenated columns. The outer
/// order survives only when `preserves_outer_order` (nested-loop and merge
/// joins; not hash join). Join predicates must additionally be applied by
/// the caller via ApplyPredicate.
PlanProperties JoinProperties(
    const PlanProperties& outer, const PlanProperties& inner,
    const std::vector<std::pair<ColumnId, ColumnId>>& join_pairs,
    bool preserves_outer_order, double cardinality);

/// Properties of a LEFT OUTER JOIN (outer = preserved side, inner =
/// null-supplying side), per §4.1's outer-join rule: each equality ON pair
/// (p, n) contributes only the one-way FD {p} -> {n}; the inner side's
/// equivalence classes survive (NULLs compare equal) but its constant
/// bindings do not; inner keys never propagate alone (null-extended rows
/// collide on them) — outer keys survive when the join is n-to-1,
/// otherwise concatenated pairs are used.
PlanProperties LeftJoinProperties(
    const PlanProperties& outer, const PlanProperties& inner,
    const std::vector<std::pair<ColumnId, ColumnId>>& on_pairs,
    bool preserves_outer_order, double cardinality);

/// Properties after sorting on `spec`: order replaced, rest unchanged.
PlanProperties SortProperties(const PlanProperties& input,
                              const OrderSpec& spec);

/// Properties after grouping: visible columns become the group columns and
/// aggregate outputs; the group columns form a key; {group} -> {aggregates}
/// joins the FDs. `preserves_order` is true for the streaming (sort-based)
/// implementation.
PlanProperties GroupByProperties(const PlanProperties& input,
                                 const std::vector<ColumnId>& group_columns,
                                 const ColumnSet& aggregate_outputs,
                                 bool preserves_order, double cardinality);

/// Properties after duplicate elimination over `distinct_columns`.
PlanProperties DistinctProperties(const PlanProperties& input,
                                  const ColumnSet& distinct_columns,
                                  bool preserves_order, double cardinality);

/// Properties after projecting to `visible`: keys project (§5.2.1), and the
/// order property is truncated at the first column that is no longer
/// visible (and cannot be substituted via an equivalence class).
PlanProperties ProjectProperties(const PlanProperties& input,
                                 const ColumnSet& visible);

}  // namespace ordopt

#endif  // ORDOPT_PROPERTIES_PLAN_PROPERTIES_H_
