#ifndef ORDOPT_ORDEROPT_REDUCE_CACHE_H_
#define ORDOPT_ORDEROPT_REDUCE_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "orderopt/operations.h"
#include "orderopt/order_spec.h"

namespace ordopt {

/// Memoizes Reduce Order (and through it Test Order) results across the
/// planner's many decision sites. Reduction is a pure function of
/// (specification, context eq/fds, transitive flag); instead of hashing the
/// context structurally, the cache keys on the context's *epoch* — the
/// identity PlanProperties stamps on each distinct (eq, fds) content (see
/// PlanProperties::Context). Copied properties share an epoch, so the many
/// candidate plans over the same quantifier subset all hit the same
/// entries; a mutated context gets a fresh epoch and simply never collides
/// with stale entries. A context with epoch 0 has unknown identity and
/// bypasses the cache (counted as neither hit nor miss).
///
/// One cache lives per Planner, so entries never outlive the statistics
/// they are charged to; an unbounded map is safe because a single
/// optimization touches at most (contexts x interesting orders) entries.
class ReduceCache {
 public:
  /// ReduceOrder(spec, ctx), memoized per (ctx.epoch, ctx.transitive_fds,
  /// spec).
  OrderSpec Reduce(const OrderSpec& spec, const OrderContext& ctx);

  /// TestOrder(interesting, property, ctx) computed from two memoized
  /// reductions: reduced `interesting` must be empty or a prefix of
  /// reduced `property` (§4.2) — identical semantics, one reduction shared
  /// with any SortSpecFor at the same site.
  bool Test(const OrderSpec& interesting, const OrderSpec& property,
            const OrderContext& ctx);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  // The cached result for (ctx.epoch, ctx.transitive_fds, spec), computed
  // on a miss. Requires ctx.epoch != 0. Entries are never erased, so the
  // reference stays valid for the cache's lifetime.
  const OrderSpec& Lookup(const OrderSpec& spec, const OrderContext& ctx);

  struct Key {
    uint64_t epoch;
    bool transitive;
    OrderSpec spec;
  };
  // A lookup key that borrows the specification, so a probe builds no
  // owning Key (heterogeneous lookup); hashing and equality see both kinds
  // through it.
  struct Probe {
    uint64_t epoch;
    bool transitive;
    const OrderSpec* spec;
  };
  static Probe AsProbe(const Key& k) {
    return Probe{k.epoch, k.transitive, &k.spec};
  }
  static Probe AsProbe(const Probe& p) { return p; }

  struct KeyHash {
    using is_transparent = void;
    template <typename K>
    size_t operator()(const K& key) const {
      Probe p = AsProbe(key);
      size_t h = OrderSpecHash{}(*p.spec);
      h ^= p.epoch + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h * 2 + (p.transitive ? 1 : 0);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      Probe x = AsProbe(a);
      Probe y = AsProbe(b);
      return x.epoch == y.epoch && x.transitive == y.transitive &&
             *x.spec == *y.spec;
    }
  };

  std::unordered_map<Key, OrderSpec, KeyHash, KeyEq> entries_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace ordopt

#endif  // ORDOPT_ORDEROPT_REDUCE_CACHE_H_
