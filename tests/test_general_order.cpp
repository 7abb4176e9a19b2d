// Tests for §7 "degrees of freedom": general order specifications for
// order-based GROUP BY / DISTINCT — permutation and direction freedom,
// FD/equivalence awareness, and covering with concrete orders.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "orderopt/general_order.h"

namespace ordopt {
namespace {

const ColumnId ax(0, 0), ay(0, 1), az(0, 2), aw(0, 3);
const ColumnId bx(1, 0);

TEST(GeneralOrder, AnyPermutationSatisfiesGrouping) {
  // §7: GROUP BY x, y, z is satisfied by (x,y,z), (y,z,x), ... in any
  // direction mix — sixteen concrete orders, one general order.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay, az});
  OrderFacts ctx;
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}, {ay}, {az}}, ctx));
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ay}, {az}, {ax}}, ctx));
  EXPECT_TRUE(g.Satisfies(
      OrderSpec{{az, SortDirection::kDescending}, {ax}, {ay}}, ctx));
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}, {ay}, {az}, {aw}}, ctx)); // refine
}

TEST(GeneralOrder, AllPermutationsAndDirectionsExhaustively) {
  // §7: "a total of sixteen different orders can satisfy the order-based
  // GROUP BY" for a.y, sum(distinct z) — i.e., every permutation in every
  // direction mix. Check the full 3! x 2^3 = 48 concrete orders of a
  // three-column grouping.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay, az});
  OrderFacts ctx;
  ColumnId cols[3] = {ax, ay, az};
  int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                     {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  int satisfied = 0;
  for (auto& perm : perms) {
    for (int dirs = 0; dirs < 8; ++dirs) {
      OrderSpec spec;
      for (int i = 0; i < 3; ++i) {
        spec.Append(OrderElement(cols[perm[i]],
                                 (dirs >> i) & 1 ? SortDirection::kDescending
                                                 : SortDirection::kAscending));
      }
      if (g.Satisfies(spec, ctx)) ++satisfied;
    }
  }
  EXPECT_EQ(satisfied, 48);
}

TEST(GeneralOrder, MissingColumnNotSatisfied) {
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay, az});
  OrderFacts ctx;
  EXPECT_FALSE(g.Satisfies(OrderSpec{{ax}, {ay}}, ctx));
  EXPECT_FALSE(g.Satisfies(OrderSpec(), ctx));
}

TEST(GeneralOrder, ForeignColumnInsidePrefixBreaksGrouping) {
  // (x, w, y, z): w splits groups of {x, y, z} apart.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay, az});
  OrderFacts ctx;
  EXPECT_FALSE(g.Satisfies(OrderSpec{{ax}, {aw}, {ay}, {az}}, ctx));
}

TEST(GeneralOrder, ForeignColumnDeterminedByGroupIsHarmless) {
  // With {x} -> {w}, order (x, w, y, z) keeps {x,y,z} groups contiguous.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay, az});
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{aw});
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}, {aw}, {ay}, {az}}, ctx));
}

TEST(GeneralOrder, ConstantGroupColumnNotNeeded) {
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  ctx.eq.AddConstant(ax, Value::Int(1));
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ay}}, ctx));
}

TEST(GeneralOrder, FdDeterminedGroupColumnNotNeeded) {
  // GROUP BY (x, y) with {x} -> {y}: order (x) suffices (the Q3 pattern:
  // grouping on l_orderkey, o_orderdate, o_shippriority satisfied by an
  // o_orderkey sort).
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{ay});
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}}, ctx));
}

TEST(GeneralOrder, EquivalentColumnSubstitutes) {
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({bx});
  OrderFacts ctx;
  ctx.eq.AddEquivalence(ax, bx);
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}}, ctx));
}

TEST(GeneralOrder, SequencedGroupsMustComeInOrder) {
  GeneralOrderSpec g;
  g.AppendGroup({{GeneralOrderSpec::Element(ax)}});
  g.AppendGroup({{GeneralOrderSpec::Element(ay),
                  GeneralOrderSpec::Element(az)}});
  OrderFacts ctx;
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax}, {az}, {ay}}, ctx));
  EXPECT_FALSE(g.Satisfies(OrderSpec{{ay}, {ax}, {az}}, ctx));
}

TEST(GeneralOrder, PinnedDirectionEnforced) {
  GeneralOrderSpec g;
  g.AppendGroup(
      {{GeneralOrderSpec::Element(ax, SortDirection::kDescending)}});
  OrderFacts ctx;
  EXPECT_TRUE(g.Satisfies(OrderSpec{{ax, SortDirection::kDescending}}, ctx));
  EXPECT_FALSE(g.Satisfies(OrderSpec{{ax, SortDirection::kAscending}}, ctx));
}

TEST(GeneralOrder, DefaultSortSpecSatisfiesItself) {
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({az, ax, ay});
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{ay});
  OrderSpec sort = g.DefaultSortSpec(ctx);
  EXPECT_TRUE(g.Satisfies(sort, ctx));
  // Reduction kicked in: y determined by x is not sorted on.
  EXPECT_EQ(sort.size(), 2u);
}

TEST(GeneralOrderCover, GroupByWithOrderByPrefix) {
  // GROUP BY x, y + ORDER BY y: one sort (y, x) serves both.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  auto cover = g.CoverConcrete(OrderSpec{{ay}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (OrderSpec{{ay}, {ax}}));
  EXPECT_TRUE(g.Satisfies(*cover, ctx));
}

TEST(GeneralOrderCover, OrderByDescWorks) {
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  auto cover =
      g.CoverConcrete(OrderSpec{{ay, SortDirection::kDescending}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->at(0),
            OrderElement(ay, SortDirection::kDescending));
  EXPECT_TRUE(g.Satisfies(*cover, ctx));
}

TEST(GeneralOrderCover, AggregateLeadingOrderByCannotBeCovered) {
  // The Q3 situation: ORDER BY rev DESC, o_orderdate — rev (an aggregate
  // output, not a group column) leads, so no single sort below the group
  // by can serve both.
  const ColumnId rev(9, 0);
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  EXPECT_FALSE(
      g.CoverConcrete(OrderSpec{{rev, SortDirection::kDescending}, {ax}}, ctx)
          .has_value());
}

TEST(GeneralOrderCover, TrailingOrderByColumnsAppended) {
  // GROUP BY x + ORDER BY x, w: sort (x, w) serves both (w refines within
  // groups).
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax});
  OrderFacts ctx;
  auto cover = g.CoverConcrete(OrderSpec{{ax}, {aw}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (OrderSpec{{ax}, {aw}}));
}

TEST(GeneralOrderCover, InterleavedForeignColumnFails) {
  // GROUP BY x, y + ORDER BY x, w, y: w is needed before the group is
  // exhausted -> impossible.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  EXPECT_FALSE(g.CoverConcrete(OrderSpec{{ax}, {aw}, {ay}}, ctx).has_value());
}

TEST(GeneralOrderCover, DeterminedOrderByColumnSkipped) {
  // GROUP BY x, y + ORDER BY x, w where {x} -> {w}: w is redundant after x.
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping({ax, ay});
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{aw});
  auto cover = g.CoverConcrete(OrderSpec{{ax}, {aw}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (OrderSpec{{ax}, {ay}}));
}

// ---------------------------------------------------------------------------
// Property test: Satisfies agrees with a brute-force adjacency check on
// random data.
// ---------------------------------------------------------------------------

class GeneralOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneralOrderProperty, SatisfiesImpliesContiguousGroups) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const int kCols = 4;
  std::vector<ColumnId> cols;
  for (int c = 0; c < kCols; ++c) cols.emplace_back(0, c);

  // Random rows over small domains; impose {c0} -> {c3} half the time.
  int n = static_cast<int>(rng.Uniform(10, 60));
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(n),
                                         std::vector<int64_t>(kCols));
  OrderFacts ctx;
  bool fd = rng.Chance(0.5);
  for (auto& row : rows) {
    for (int c = 0; c < kCols; ++c) {
      row[static_cast<size_t>(c)] = rng.Uniform(0, 3);
    }
    if (fd) row[3] = (row[0] * 3 + 1) % 4;
  }
  if (fd) ctx.fds.Add(ColumnSet{cols[0]}, ColumnSet{cols[3]});

  // Random grouping set and random order spec.
  std::vector<ColumnId> group;
  for (int c = 0; c < kCols; ++c) {
    if (rng.Chance(0.5)) group.push_back(cols[static_cast<size_t>(c)]);
  }
  if (group.empty()) group.push_back(cols[0]);
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping(group);

  OrderSpec order;
  std::vector<int> perm = {0, 1, 2, 3};
  for (int i = 3; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(rng.Uniform(0, i))]);
  }
  int len = static_cast<int>(rng.Uniform(0, 4));
  for (int i = 0; i < len; ++i) {
    order.Append(OrderElement(cols[static_cast<size_t>(perm[i])],
                              rng.Chance(0.5) ? SortDirection::kAscending
                                              : SortDirection::kDescending));
  }

  if (!g.Satisfies(order, ctx)) return;  // only soundness is claimed

  // Sort rows by `order` and verify each group key appears contiguously.
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const std::vector<int64_t>& a,
                       const std::vector<int64_t>& b) {
                     for (const OrderElement& e : order) {
                       int64_t va = a[static_cast<size_t>(e.col.column)];
                       int64_t vb = b[static_cast<size_t>(e.col.column)];
                       if (va != vb) {
                         return e.dir == SortDirection::kAscending ? va < vb
                                                                   : va > vb;
                       }
                     }
                     return false;
                   });
  auto key_of = [&](const std::vector<int64_t>& row) {
    std::vector<int64_t> key;
    for (const ColumnId& c : group) {
      key.push_back(row[static_cast<size_t>(c.column)]);
    }
    return key;
  };
  std::vector<std::vector<int64_t>> seen;
  std::vector<int64_t> current;
  bool have_current = false;
  for (const auto& row : rows) {
    std::vector<int64_t> key = key_of(row);
    if (have_current && key == current) continue;
    // A key change: this key must never have been seen before.
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), key) == seen.end())
        << "group keys not contiguous; seed=" << GetParam();
    seen.push_back(key);
    current = std::move(key);
    have_current = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, GeneralOrderProperty,
                         ::testing::Range(0, 150));

}  // namespace
}  // namespace ordopt
