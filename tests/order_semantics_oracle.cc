#include "order_semantics_oracle.h"

#include <algorithm>

#include "common/str_util.h"

namespace ordopt {
namespace {

int IndexOf(const std::vector<ColumnId>& columns, const ColumnId& col) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == col) return static_cast<int>(i);
  }
  return -1;
}

// Per-tuple constraints: equivalent columns equal, constants bound.
bool TupleConsistent(const std::vector<ColumnId>& columns,
                     const std::vector<int64_t>& tuple,
                     const OrderContext& ctx) {
  for (size_t i = 0; i < columns.size(); ++i) {
    std::optional<Value> constant = ctx.eq->ConstantValue(columns[i]);
    if (constant.has_value()) {
      if (constant->type() != DataType::kInt64 ||
          constant->AsInt() != tuple[i]) {
        return false;
      }
    }
    for (size_t j = i + 1; j < columns.size(); ++j) {
      if (ctx.eq->AreEquivalent(columns[i], columns[j]) &&
          tuple[i] != tuple[j]) {
        return false;
      }
    }
  }
  return true;
}

// Cross-tuple constraint: every stored FD holds between the two tuples —
// agreement on the head columns (modulo equivalence, which the per-tuple
// constraints already collapse) forces agreement on the tail columns. FDs
// mentioning columns outside the universe are ignored (unobservable here).
bool PairSatisfiesFds(const std::vector<ColumnId>& columns,
                      const std::vector<int64_t>& a,
                      const std::vector<int64_t>& b, const OrderContext& ctx) {
  for (const FunctionalDependency& fd : ctx.fds->fds()) {
    bool heads_agree = true;
    bool heads_observable = true;
    for (const ColumnId& h : fd.head) {
      int idx = IndexOf(columns, h);
      if (idx < 0) {
        heads_observable = false;
        break;
      }
      if (a[static_cast<size_t>(idx)] != b[static_cast<size_t>(idx)]) {
        heads_agree = false;
        break;
      }
    }
    if (!heads_observable || !heads_agree) continue;
    for (const ColumnId& t : fd.tail) {
      int idx = IndexOf(columns, t);
      if (idx < 0) continue;
      if (a[static_cast<size_t>(idx)] != b[static_cast<size_t>(idx)]) {
        return false;
      }
    }
  }
  return true;
}

std::string RenderTuple(const std::vector<int64_t>& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%lld", static_cast<long long>(tuple[i]));
  }
  return out + ")";
}

std::string Counterexample(const SemanticsDomain& domain, const char* claim,
                           const OrderSpec& s1, const OrderSpec& s2,
                           size_t a, size_t b) {
  return StrFormat(
      "%s violated for %s vs %s on tuples %s and %s",
      claim, s1.ToString().c_str(), s2.ToString().c_str(),
      RenderTuple(domain.tuples[a]).c_str(),
      RenderTuple(domain.tuples[b]).c_str());
}

}  // namespace

SemanticsDomain BuildSemanticsDomain(const std::vector<ColumnId>& columns,
                                     const OrderContext& ctx,
                                     int64_t value_count) {
  SemanticsDomain domain;
  domain.columns = columns;
  std::vector<int64_t> tuple(columns.size(), 0);
  // Odometer enumeration of {0..value_count-1}^k, greedily keeping tuples
  // that are consistent per-tuple and FD-consistent with everything kept.
  while (true) {
    if (TupleConsistent(columns, tuple, ctx)) {
      bool consistent = true;
      for (const std::vector<int64_t>& kept : domain.tuples) {
        if (!PairSatisfiesFds(columns, kept, tuple, ctx)) {
          consistent = false;
          break;
        }
      }
      if (consistent) domain.tuples.push_back(tuple);
    }
    size_t pos = 0;
    while (pos < tuple.size() && ++tuple[pos] == value_count) {
      tuple[pos] = 0;
      ++pos;
    }
    if (pos == tuple.size()) break;
  }
  return domain;
}

int CompareUnder(const SemanticsDomain& domain, const OrderSpec& spec,
                 size_t a, size_t b) {
  for (const OrderElement& e : spec) {
    int idx = IndexOf(domain.columns, e.col);
    if (idx < 0) continue;
    int64_t va = domain.tuples[a][static_cast<size_t>(idx)];
    int64_t vb = domain.tuples[b][static_cast<size_t>(idx)];
    if (va == vb) continue;
    int cmp = va < vb ? -1 : 1;
    return e.dir == SortDirection::kDescending ? -cmp : cmp;
  }
  return 0;
}

std::string CheckImplication(const SemanticsDomain& domain,
                             const OrderSpec& stronger,
                             const OrderSpec& weaker) {
  for (size_t a = 0; a < domain.tuples.size(); ++a) {
    for (size_t b = a + 1; b < domain.tuples.size(); ++b) {
      int cs = CompareUnder(domain, stronger, a, b);
      int cw = CompareUnder(domain, weaker, a, b);
      // A stream ordered by `stronger` may emit a before b when cs <= 0;
      // for `weaker` to hold in every such stream: cs<0 → cw<=0, and
      // cs==0 → cw==0 (ties may emit in either direction).
      if ((cs < 0 && cw > 0) || (cs == 0 && cw != 0)) {
        return Counterexample(domain, "order implication", stronger, weaker,
                              a, b);
      }
    }
  }
  return "";
}

std::string CheckEquivalentOrders(const SemanticsDomain& domain,
                                  const OrderSpec& s1, const OrderSpec& s2) {
  for (size_t a = 0; a < domain.tuples.size(); ++a) {
    for (size_t b = a + 1; b < domain.tuples.size(); ++b) {
      int c1 = CompareUnder(domain, s1, a, b);
      int c2 = CompareUnder(domain, s2, a, b);
      if ((c1 < 0) != (c2 < 0) || (c1 == 0) != (c2 == 0)) {
        return Counterexample(domain, "order equivalence", s1, s2, a, b);
      }
    }
  }
  return "";
}

std::vector<std::string> VerifyOperationSemantics(
    const std::vector<ColumnId>& columns, const OrderContext& ctx,
    const std::vector<OrderSpec>& specs, const ColumnSet& targets,
    const EquivalenceClasses& substitution_eq, int64_t value_count) {
  std::vector<std::string> failures;
  SemanticsDomain domain = BuildSemanticsDomain(columns, ctx, value_count);

  // §4.1 Reduce Order: the reduced spec orders streams identically.
  for (const OrderSpec& spec : specs) {
    OrderSpec reduced = ReduceOrder(spec, ctx);
    std::string err = CheckEquivalentOrders(domain, spec, reduced);
    if (!err.empty()) {
      failures.push_back("ReduceOrder(" + spec.ToString() + ") -> " +
                         reduced.ToString() + ": " + err);
    }
  }

  // §4.2 Test Order: a true verdict claims ordered-by-property implies
  // ordered-by-interesting. (A false verdict claims nothing — the simple
  // subset test is deliberately incomplete — so only true is checked.)
  for (const OrderSpec& interesting : specs) {
    for (const OrderSpec& property : specs) {
      if (!TestOrder(interesting, property, ctx)) continue;
      std::string err = CheckImplication(domain, property, interesting);
      if (!err.empty()) {
        failures.push_back("TestOrder(" + interesting.ToString() + ", " +
                           property.ToString() + ")=true: " + err);
      }
    }
  }

  // §4.3 Cover Order: the cover implies both inputs.
  for (const OrderSpec& i1 : specs) {
    for (const OrderSpec& i2 : specs) {
      std::optional<OrderSpec> cover = CoverOrder(i1, i2, ctx);
      if (!cover.has_value()) continue;
      for (const OrderSpec* input : {&i1, &i2}) {
        std::string err = CheckImplication(domain, *cover, *input);
        if (!err.empty()) {
          failures.push_back("CoverOrder(" + i1.ToString() + ", " +
                             i2.ToString() + ") -> " + cover->ToString() +
                             ": " + err);
        }
      }
    }
  }

  // §4.4 Homogenize Order: once the future (substitution) equivalences
  // hold, ordered-by-homogenization implies ordered-by-original. The
  // domain is rebuilt under the future context — homogenization's whole
  // point is substituting through equivalences not yet applied.
  OrderFacts future{*ctx.eq, *ctx.fds, ctx.transitive_fds};
  future.eq.MergeEquivalencesFrom(substitution_eq);
  SemanticsDomain future_domain =
      BuildSemanticsDomain(columns, future, value_count);
  for (const OrderSpec& spec : specs) {
    std::optional<OrderSpec> homogenized =
        HomogenizeOrder(spec, targets, substitution_eq, ctx);
    if (!homogenized.has_value()) continue;
    // The rewrite must land entirely on the target columns.
    for (const OrderElement& e : *homogenized) {
      if (!targets.Contains(e.col)) {
        failures.push_back("HomogenizeOrder(" + spec.ToString() + ") -> " +
                           homogenized->ToString() +
                           ": result column outside targets");
        break;
      }
    }
    std::string err = CheckImplication(future_domain, *homogenized, spec);
    if (!err.empty()) {
      failures.push_back("HomogenizeOrder(" + spec.ToString() + ") -> " +
                         homogenized->ToString() + ": " + err);
    }
  }
  return failures;
}

}  // namespace ordopt
