#include "orderopt/reduce_cache.h"

namespace ordopt {

const OrderSpec& ReduceCache::Lookup(const OrderSpec& spec,
                                     const OrderContext& ctx) {
  auto it = entries_.find(Probe{ctx.epoch, ctx.transitive_fds, &spec});
  if (it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  return entries_
      .emplace(Key{ctx.epoch, ctx.transitive_fds, spec}, ReduceOrder(spec, ctx))
      .first->second;
}

OrderSpec ReduceCache::Reduce(const OrderSpec& spec, const OrderContext& ctx) {
  // Unknown context identity: compute without memoizing.
  if (ctx.epoch == 0) return ReduceOrder(spec, ctx);
  return Lookup(spec, ctx);
}

bool ReduceCache::Test(const OrderSpec& interesting, const OrderSpec& property,
                       const OrderContext& ctx) {
  if (ctx.epoch == 0) return TestOrder(interesting, property, ctx);
  const OrderSpec& i = Lookup(interesting, ctx);
  if (i.empty()) return true;  // trivially satisfied (§4.1 end)
  return i.IsPrefixOf(Lookup(property, ctx));
}

}  // namespace ordopt
