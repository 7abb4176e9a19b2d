// Tests for Test Order (§4.2), Cover Order (§4.3), and Homogenize Order
// (§4.4), including every worked example in the paper's text.

#include <gtest/gtest.h>

#include "orderopt/operations.h"
#include "properties/plan_properties.h"

namespace ordopt {
namespace {

const ColumnId ax(0, 0), ay(0, 1), az(0, 2);
const ColumnId bx(1, 0), by(1, 1);

// ---------------------------------------------------------------------------
// Test Order
// ---------------------------------------------------------------------------

TEST(TestOrder, NaiveFailureFixedByConstant) {
  // §4.1 motivating example: I = (x, y), OP = (y). A naive test fails, but
  // with x = 10 applied, I reduces to (y) and is satisfied.
  OrderSpec interesting{{ax}, {ay}};
  OrderSpec property{{ay}};
  OrderFacts ctx;
  EXPECT_FALSE(TestOrder(interesting, property, ctx));
  ctx.eq.AddConstant(ax, Value::Int(10));
  EXPECT_TRUE(TestOrder(interesting, property, ctx));
}

TEST(TestOrder, EquivalenceExample) {
  // §4.1: I = (x, z), OP = (y, z) with x = y applied: satisfied.
  OrderSpec interesting{{ax}, {az}};
  OrderSpec property{{ay}, {az}};
  OrderFacts ctx;
  EXPECT_FALSE(TestOrder(interesting, property, ctx));
  ctx.eq.AddEquivalence(ax, ay);
  EXPECT_TRUE(TestOrder(interesting, property, ctx));
}

TEST(TestOrder, KeyExample) {
  // §4.1: I = (x, y), OP = (x, z) with x a key: both reduce to (x).
  OrderSpec interesting{{ax}, {ay}};
  OrderSpec property{{ax}, {az}};
  OrderFacts ctx;
  EXPECT_FALSE(TestOrder(interesting, property, ctx));
  ctx.fds.AddKey(ColumnSet{ax}, ColumnSet{ax, ay, az});
  EXPECT_TRUE(TestOrder(interesting, property, ctx));
}

TEST(TestOrder, EmptyInterestingOrderAlwaysSatisfied) {
  OrderFacts ctx;
  EXPECT_TRUE(TestOrder(OrderSpec(), OrderSpec(), ctx));
  EXPECT_TRUE(TestOrder(OrderSpec(), OrderSpec{{ax}}, ctx));
}

TEST(TestOrder, DirectionMismatchNotSatisfied) {
  OrderSpec interesting{{ax, SortDirection::kDescending}};
  OrderSpec property{{ax, SortDirection::kAscending}};
  OrderFacts ctx;
  EXPECT_FALSE(TestOrder(interesting, property, ctx));
  EXPECT_TRUE(TestOrder(interesting,
                        OrderSpec{{ax, SortDirection::kDescending}}, ctx));
}

TEST(TestOrder, PrefixSemantics) {
  OrderFacts ctx;
  EXPECT_TRUE(TestOrder(OrderSpec{{ax}}, OrderSpec{{ax}, {ay}}, ctx));
  EXPECT_FALSE(TestOrder(OrderSpec{{ax}, {ay}}, OrderSpec{{ax}}, ctx));
  EXPECT_FALSE(TestOrder(OrderSpec{{ay}}, OrderSpec{{ax}, {ay}}, ctx));
}

// ---------------------------------------------------------------------------
// Cover Order
// ---------------------------------------------------------------------------

TEST(CoverOrder, SimplePrefixCover) {
  // §4.3: cover of (z) and (z, y) is (z, y).
  OrderFacts ctx;
  auto cover = CoverOrder(OrderSpec{{az}}, OrderSpec{{az}, {ay}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (OrderSpec{{az}, {ay}}));
}

TEST(CoverOrder, NoCoverWithoutReduction) {
  // §4.3: no cover for (y, z) and (x, y, z)...
  OrderFacts ctx;
  EXPECT_FALSE(
      CoverOrder(OrderSpec{{ay}, {az}}, OrderSpec{{ax}, {ay}, {az}}, ctx)
          .has_value());
}

TEST(CoverOrder, CoverEnabledByConstantReduction) {
  // ...but with x = 10 applied, they reduce to (y, z) and (y, z): cover
  // (y, z).
  OrderFacts ctx;
  ctx.eq.AddConstant(ax, Value::Int(10));
  auto cover =
      CoverOrder(OrderSpec{{ay}, {az}}, OrderSpec{{ax}, {ay}, {az}}, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(*cover, (OrderSpec{{ay}, {az}}));
}

TEST(CoverOrder, OrderOfArgumentsIrrelevant) {
  OrderFacts ctx;
  auto c1 = CoverOrder(OrderSpec{{az}, {ay}}, OrderSpec{{az}}, ctx);
  auto c2 = CoverOrder(OrderSpec{{az}}, OrderSpec{{az}, {ay}}, ctx);
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(*c1, *c2);
}

TEST(CoverOrder, CoverSatisfiesBothInputs) {
  // Contract: any order property satisfying the cover satisfies both.
  OrderFacts ctx;
  ctx.eq.AddConstant(ax, Value::Int(1));
  OrderSpec i1{{ay}};
  OrderSpec i2{{ax}, {ay}, {az}};
  auto cover = CoverOrder(i1, i2, ctx);
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(TestOrder(i1, *cover, ctx));
  EXPECT_TRUE(TestOrder(i2, *cover, ctx));
}

// ---------------------------------------------------------------------------
// Homogenize Order
// ---------------------------------------------------------------------------

TEST(HomogenizeOrder, PaperJoinExample) {
  // §4.4: ORDER BY a.x, b.y over a join with a.x = b.x. Homogenizing to
  // table b's columns yields (b.x, b.y).
  EquivalenceClasses future;
  future.AddEquivalence(ax, bx);
  OrderFacts ctx;  // nothing applied yet on the base stream
  ColumnSet b_cols{bx, by};
  auto hom = HomogenizeOrder(OrderSpec{{ax}, {by}}, b_cols, future, ctx);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(*hom, (OrderSpec{{bx}, {by}}));
}

TEST(HomogenizeOrder, FailsWhenColumnUnavailable) {
  // §4.4: (a.x, b.y) cannot be homogenized to table a (b.y unavailable).
  EquivalenceClasses future;
  future.AddEquivalence(ax, bx);
  OrderFacts ctx;
  ColumnSet a_cols{ax, ay};
  EXPECT_FALSE(
      HomogenizeOrder(OrderSpec{{ax}, {by}}, a_cols, future, ctx).has_value());
}

TEST(HomogenizeOrder, KeyFdEnablesFullPushdown) {
  // §4.4: if {a.x} -> {b.y} (a.x a key surviving the join), (a.x, b.y)
  // reduces to (a.x), which homogenizes to table a.
  EquivalenceClasses future;
  future.AddEquivalence(ax, bx);
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{by});
  ColumnSet a_cols{ax, ay};
  auto hom = HomogenizeOrder(OrderSpec{{ax}, {by}}, a_cols, future, ctx);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(*hom, (OrderSpec{{ax}}));
}

TEST(HomogenizeOrder, PrefixVariantReturnsLargestPrefix) {
  // §5.1: when full homogenization fails, the largest homogenizable prefix
  // is pushed.
  EquivalenceClasses future;
  future.AddEquivalence(ax, bx);
  OrderFacts ctx;
  ColumnSet a_cols{ax, ay};
  OrderSpec prefix =
      HomogenizeOrderPrefix(OrderSpec{{bx}, {by}, {ay}}, a_cols, future, ctx);
  EXPECT_EQ(prefix, (OrderSpec{{ax}}));
}

TEST(HomogenizeOrder, UsesFutureEquivalences) {
  // §4.4: homogenization may use predicates that have NOT been applied yet;
  // reduction (ctx) must not.
  EquivalenceClasses future;
  future.AddEquivalence(ay, by);
  OrderFacts ctx;  // a.y = b.y not applied
  ColumnSet b_cols{bx, by};
  auto hom = HomogenizeOrder(OrderSpec{{ay}}, b_cols, future, ctx);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(*hom, (OrderSpec{{by}}));
}

TEST(HomogenizeOrder, TargetColumnKeptWhenAlreadyInTargets) {
  EquivalenceClasses future;
  OrderFacts ctx;
  ColumnSet targets{ax, ay};
  auto hom = HomogenizeOrder(OrderSpec{{ax}, {ay}}, targets, future, ctx);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(*hom, (OrderSpec{{ax}, {ay}}));
}

// §4.4 + §5 across a LEFT OUTER JOIN: the equality ON pair (ax = bx)
// contributes only the one-way FD {ax} -> {bx}. NULL-extended rows all
// carry bx = NULL while differing on ax, so recording an equivalence — or
// the reverse FD — would be unsound. The operations must let order
// knowledge flow preserved -> null-supplying and never back.
TEST(HomogenizeOrder, OuterJoinFdTransfersOnlyForward) {
  PlanProperties outer;
  outer.columns = ColumnSet{ax, ay};
  PlanProperties inner;
  inner.columns = ColumnSet{bx, by};
  PlanProperties join =
      LeftJoinProperties(outer, inner, {{ax, bx}},
                         /*preserves_outer_order=*/true, 100.0);
  // The soundness of everything below rests on the ON pair never becoming
  // an equivalence in the join's properties.
  EXPECT_FALSE(join.eq().AreEquivalent(ax, bx));
  OrderContext ctx = join.Context();

  // Forward: within an ax-group, bx is pinned, so it reduces away and an
  // interest in (ax, bx) is met by a stream ordered on ax alone.
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {bx}}, ctx), (OrderSpec{{ax}}));
  EXPECT_TRUE(TestOrder(OrderSpec{{ax}, {bx}}, OrderSpec{{ax}}, ctx));

  // Reverse: bx determines nothing about ax. The element must survive
  // reduction and a stream ordered on bx satisfies no interest in ax.
  EXPECT_EQ(ReduceOrder(OrderSpec{{bx}, {ax}}, ctx),
            (OrderSpec{{bx}, {ax}}));
  EXPECT_FALSE(TestOrder(OrderSpec{{bx}, {ax}}, OrderSpec{{bx}}, ctx));
  EXPECT_FALSE(TestOrder(OrderSpec{{ax}}, OrderSpec{{bx}}, ctx));
}

// Homogenizing across the null-supplying side after an outer join: with no
// substitution equivalence recorded (the outer join must not supply one),
// an order led by the null-supplying column cannot be rewritten onto the
// preserved side — while the forward direction still homogenizes because
// reduction eliminates the FD-determined null-supplying column first.
TEST(HomogenizeOrder, OuterJoinNullSupplyingSideDoesNotSubstitute) {
  PlanProperties outer;
  outer.columns = ColumnSet{ax, ay};
  PlanProperties inner;
  inner.columns = ColumnSet{bx, by};
  PlanProperties join =
      LeftJoinProperties(outer, inner, {{ax, bx}},
                         /*preserves_outer_order=*/true, 100.0);
  OrderContext ctx = join.Context();
  EquivalenceClasses no_subst;

  // Forward transfer: (ax, bx) reduces to (ax), already a preserved-side
  // target, so the homogenization succeeds without any equivalence.
  auto forward = HomogenizeOrder(OrderSpec{{ax}, {bx}}, ColumnSet{ax, ay},
                                 no_subst, ctx);
  ASSERT_TRUE(forward.has_value());
  EXPECT_EQ(*forward, (OrderSpec{{ax}}));

  // Reverse: bx survives reduction and nothing substitutes it onto the
  // preserved targets; the rewrite must fail rather than silently use the
  // one-way FD as if it were an equivalence.
  EXPECT_FALSE(HomogenizeOrder(OrderSpec{{bx}, {ax}}, ColumnSet{ax, ay},
                               no_subst, ctx)
                   .has_value());
  // Same across the other boundary: a preserved-side order cannot be
  // homogenized onto the null-supplying side's columns.
  EXPECT_FALSE(HomogenizeOrder(OrderSpec{{ax}}, ColumnSet{bx, by},
                               no_subst, ctx)
                   .has_value());
}

TEST(HomogenizeOrder, DirectionSurvivesSubstitution) {
  EquivalenceClasses future;
  future.AddEquivalence(ax, bx);
  OrderFacts ctx;
  ColumnSet b_cols{bx, by};
  auto hom = HomogenizeOrder(OrderSpec{{ax, SortDirection::kDescending}},
                             b_cols, future, ctx);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->at(0).dir, SortDirection::kDescending);
  EXPECT_EQ(hom->at(0).col, bx);
}

}  // namespace
}  // namespace ordopt
