#ifndef ORDOPT_ORDEROPT_OPERATIONS_H_
#define ORDOPT_ORDEROPT_OPERATIONS_H_

#include <optional>

#include "orderopt/equivalence.h"
#include "orderopt/fd.h"
#include "orderopt/order_spec.h"

namespace ordopt {

/// The data-property context an order specification is interpreted in: the
/// equivalence classes and constant bindings from predicates applied to the
/// stream, plus the stream's functional dependencies (§4.1).
///
/// A context *borrows* them: it points at the classes and FDs of the
/// property bundle (PlanProperties::Context) or OrderFacts it came from and
/// must not outlive that owner. Building one copies two pointers, so the
/// planner's per-candidate Test/Reduce calls cost what the operations
/// themselves cost. A default-constructed context is the empty one.
struct OrderContext {
  OrderContext();
  OrderContext(const EquivalenceClasses& classes, const FDSet& deps,
               bool transitive = false, uint64_t identity = 0)
      : eq(&classes), fds(&deps), transitive_fds(transitive),
        epoch(identity) {}

  const EquivalenceClasses* eq;
  const FDSet* fds;

  /// When true, redundant-column tests use the transitive closure of the
  /// FDs instead of the paper's single-FD subset test. The paper's DB2
  /// implementation uses the simple test ("simple subset operations can be
  /// used on the input FDs"); the closure mode is strictly stronger and is
  /// compared against the simple mode in tests and benches.
  bool transitive_fds = false;

  /// Identity of this context's (eq, fds) content for memoization. Two
  /// contexts with the same nonzero epoch are guaranteed to hold identical
  /// classes and dependencies (PlanProperties assigns epochs and resets
  /// them on mutation). 0 means "unknown identity" and bypasses the
  /// ReduceCache.
  uint64_t epoch = 0;

  bool Determines(const ColumnSet& b, const ColumnId& c) const {
    return transitive_fds ? fds->DeterminesTransitive(b, c, *eq)
                          : fds->Determines(b, c, *eq);
  }
};

/// Owned classes and FDs for contexts that no PlanProperties bundle holds:
/// the order scan's optimistic per-box contexts, and tests. Converts to an
/// OrderContext borrowing it, so it can be passed wherever a context is
/// expected; the context must not outlive it.
struct OrderFacts {
  EquivalenceClasses eq;
  FDSet fds;
  bool transitive_fds = false;
  uint64_t epoch = 0;

  OrderContext Context() const {
    return OrderContext(eq, fds, transitive_fds, epoch);
  }
  operator OrderContext() const { return Context(); }
};

/// What Reduce Order did to one element of the input specification; used
/// by the optimizer trace to explain *why* an order shrank (§4.1).
struct ReduceStep {
  enum class Action {
    kKept,               ///< survived reduction (possibly head-substituted)
    kHeadSubstituted,    ///< rewritten to its equivalence-class head, kept
    kRemovedDetermined,  ///< deleted: preceding columns determine it (an FD,
                         ///< a constant binding, or a duplicate)
  };
  ColumnId original;  ///< column as requested
  ColumnId column;    ///< column after head substitution
  Action action = Action::kKept;
};

/// Reduce Order (§4.1, Figure 2). Rewrites an order specification into
/// canonical form: every column is replaced by its equivalence-class head,
/// then a backward scan deletes each column functionally determined by the
/// columns preceding it (constants and duplicates fall out as special
/// cases). The result may be empty, which is satisfied by any stream.
OrderSpec ReduceOrder(const OrderSpec& spec, const OrderContext& ctx);

/// As above, additionally reporting one ReduceStep per input element when
/// `steps` is non-null (trace instrumentation; cleared first).
OrderSpec ReduceOrder(const OrderSpec& spec, const OrderContext& ctx,
                      std::vector<ReduceStep>* steps);

/// Test Order (§4.2, Figure 3). True iff the stream order property
/// `property` satisfies the interesting order `interesting`: both are
/// reduced, then reduced `interesting` must be empty or a prefix (columns
/// and directions) of reduced `property`.
bool TestOrder(const OrderSpec& interesting, const OrderSpec& property,
               const OrderContext& ctx);

/// Cover Order (§4.3, Figure 4). Combines two interesting orders into one
/// specification `C` such that any order property satisfying `C` satisfies
/// both inputs: after reduction the shorter must be a prefix of the longer,
/// which is returned. nullopt when no cover exists.
std::optional<OrderSpec> CoverOrder(const OrderSpec& i1, const OrderSpec& i2,
                                    const OrderContext& ctx);

/// Homogenize Order (§4.4, Figure 5). Rewrites interesting order `spec`
/// (after reduction under `ctx`) purely in terms of `target_columns`,
/// substituting through `substitution_eq` — which, unlike reduction, may
/// include equivalences from predicates *not yet applied* (§4.4). Any class
/// member may be chosen; we pick deterministically (smallest eligible).
/// nullopt when some column has no equivalent among the targets.
std::optional<OrderSpec> HomogenizeOrder(
    const OrderSpec& spec, const ColumnSet& target_columns,
    const EquivalenceClasses& substitution_eq, const OrderContext& ctx);

/// Longest-prefix variant used by the order scan (§5.1): when `spec` cannot
/// be fully homogenized, returns the homogenization of its largest
/// homogenizable prefix ("in the hope that some FD will make the suffix
/// redundant"). May be empty.
OrderSpec HomogenizeOrderPrefix(const OrderSpec& spec,
                                const ColumnSet& target_columns,
                                const EquivalenceClasses& substitution_eq,
                                const OrderContext& ctx);

}  // namespace ordopt

#endif  // ORDOPT_ORDEROPT_OPERATIONS_H_
