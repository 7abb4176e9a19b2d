// ReduceCache tests: memoized Reduce/Test Order must agree exactly with the
// uncached §4.1/§4.2 operations, count hits and misses per context epoch,
// and stay out of the way (epoch 0) when a context has no identity.

#include <gtest/gtest.h>

#include "orderopt/reduce_cache.h"

namespace ordopt {
namespace {

// A context where y is equivalent to x (head x), k is constant, and
// {x} -> {z}: reduce((y, k, z)) = (x).
OrderFacts MakeContext(uint64_t epoch) {
  OrderFacts ctx;
  ctx.eq.AddEquivalence({0, 0}, {0, 1});          // x = y
  ctx.eq.AddConstant({0, 3}, Value::Int(5));      // k = 5
  ctx.fds.Add(ColumnSet{{0, 0}}, ColumnSet{{0, 2}});  // {x} -> {z}
  ctx.epoch = epoch;
  return ctx;
}

const OrderSpec kYKZ{{ColumnId(0, 1)}, {ColumnId(0, 3)}, {ColumnId(0, 2)}};

TEST(ReduceCache, MatchesUncachedReduction) {
  ReduceCache cache;
  OrderFacts ctx = MakeContext(7);
  OrderSpec expected = ReduceOrder(kYKZ, ctx);
  EXPECT_EQ(cache.Reduce(kYKZ, ctx), expected);
  // Second call returns the identical memoized spec.
  EXPECT_EQ(cache.Reduce(kYKZ, ctx), expected);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ReduceCache, EpochZeroBypasses) {
  ReduceCache cache;
  OrderFacts ctx = MakeContext(0);
  OrderSpec expected = ReduceOrder(kYKZ, ctx);
  EXPECT_EQ(cache.Reduce(kYKZ, ctx), expected);
  EXPECT_EQ(cache.Reduce(kYKZ, ctx), expected);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(ReduceCache, DistinctEpochsDoNotCollide) {
  ReduceCache cache;
  OrderFacts rich = MakeContext(1);
  // Same epoch-keyed cache, different context content under a different
  // epoch: the empty context reduces nothing.
  OrderFacts empty;
  empty.epoch = 2;
  EXPECT_EQ(cache.Reduce(kYKZ, rich).size(), 1u);
  EXPECT_EQ(cache.Reduce(kYKZ, empty), kYKZ);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(ReduceCache, TransitiveFlagIsPartOfTheKey) {
  ReduceCache cache;
  // {x} -> {y}, {y} -> {z}: (x, z) reduces to (x) only transitively.
  OrderFacts simple;
  simple.fds.Add(ColumnSet{{0, 0}}, ColumnSet{{0, 1}});
  simple.fds.Add(ColumnSet{{0, 1}}, ColumnSet{{0, 2}});
  simple.epoch = 9;
  OrderFacts transitive = simple;
  transitive.transitive_fds = true;

  OrderSpec xz{{ColumnId(0, 0)}, {ColumnId(0, 2)}};
  EXPECT_EQ(cache.Reduce(xz, simple).size(), 2u);
  EXPECT_EQ(cache.Reduce(xz, transitive).size(), 1u);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ReduceCache, TestMatchesTestOrder) {
  ReduceCache cache;
  OrderFacts ctx = MakeContext(3);
  OrderSpec property{{ColumnId(0, 0)}, {ColumnId(0, 4)}};
  // Every combination must agree with the uncached TestOrder.
  for (const OrderSpec& interesting :
       {kYKZ, OrderSpec{{ColumnId(0, 4)}}, OrderSpec{}}) {
    EXPECT_EQ(cache.Test(interesting, property, ctx),
              TestOrder(interesting, property, ctx))
        << interesting.ToString();
  }
}

TEST(ReduceCache, TestSharesReductionsWithReduce) {
  ReduceCache cache;
  OrderFacts ctx = MakeContext(4);
  OrderSpec property{{ColumnId(0, 0)}};
  // Test reduces both specs (2 misses)...
  EXPECT_TRUE(cache.Test(kYKZ, property, ctx));
  EXPECT_EQ(cache.misses(), 2);
  // ...and a following Reduce of either spec is a pure hit — the pattern
  // behind routing OrderSatisfied and SortSpecFor through one cache.
  cache.Reduce(kYKZ, ctx);
  cache.Reduce(property, ctx);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);
}

}  // namespace
}  // namespace ordopt
