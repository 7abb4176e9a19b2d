// Randomized metamorphic testing of the §4 order operations against the
// brute-force semantics oracle (order_semantics_oracle.h): random
// EquivalenceClasses + FD contexts, random specifications, and the oracle
// checks every claimed property over an exhaustive small tuple domain.
// Includes sanity mutations proving the oracle's checkers reject wrong
// claims — a checker that accepts everything would make the random sweep
// meaningless.

#include <gtest/gtest.h>

#include "common/random.h"
#include "order_semantics_oracle.h"

namespace ordopt {
namespace {

ColumnId Col(int i) { return ColumnId(0, i); }

struct RandomScenario {
  std::vector<ColumnId> columns;
  OrderFacts ctx;
  std::vector<OrderSpec> specs;
  ColumnSet targets;
  EquivalenceClasses substitution_eq;
};

RandomScenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  RandomScenario s;
  const int k = 5;
  for (int i = 0; i < k; ++i) s.columns.push_back(Col(i));

  // Applied equivalences and at most one constant binding.
  int eq_pairs = static_cast<int>(rng.Uniform(0, 2));
  for (int i = 0; i < eq_pairs; ++i) {
    s.ctx.eq.AddEquivalence(Col(static_cast<int>(rng.Uniform(0, k - 1))),
                            Col(static_cast<int>(rng.Uniform(0, k - 1))));
  }
  if (rng.Chance(0.4)) {
    s.ctx.eq.AddConstant(Col(static_cast<int>(rng.Uniform(0, k - 1))),
                         Value::Int(rng.Uniform(0, 2)));
  }

  // Functional dependencies with small heads and tails.
  int fd_count = static_cast<int>(rng.Uniform(0, 2));
  for (int i = 0; i < fd_count; ++i) {
    ColumnSet head;
    int head_size = static_cast<int>(rng.Uniform(1, 2));
    for (int j = 0; j < head_size; ++j) {
      head.Add(Col(static_cast<int>(rng.Uniform(0, k - 1))));
    }
    ColumnSet tail;
    int tail_size = static_cast<int>(rng.Uniform(1, 2));
    for (int j = 0; j < tail_size; ++j) {
      tail.Add(Col(static_cast<int>(rng.Uniform(0, k - 1))));
    }
    s.ctx.fds.Add(head, tail);
  }
  s.ctx.transitive_fds = rng.Chance(0.5);

  // Random specifications, including the empty one (satisfied by all).
  int spec_count = 4;
  for (int i = 0; i < spec_count; ++i) {
    OrderSpec spec;
    int len = static_cast<int>(rng.Uniform(0, 3));
    for (int j = 0; j < len; ++j) {
      spec.Append(OrderElement(
          Col(static_cast<int>(rng.Uniform(0, k - 1))),
          rng.Chance(0.3) ? SortDirection::kDescending
                          : SortDirection::kAscending));
    }
    s.specs.push_back(std::move(spec));
  }

  // Homogenization targets plus future equivalences linking into them.
  int target_count = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < target_count; ++i) {
    s.targets.Add(Col(static_cast<int>(rng.Uniform(0, k - 1))));
  }
  int future_pairs = static_cast<int>(rng.Uniform(1, 2));
  for (int i = 0; i < future_pairs; ++i) {
    s.substitution_eq.AddEquivalence(
        Col(static_cast<int>(rng.Uniform(0, k - 1))),
        Col(static_cast<int>(rng.Uniform(0, k - 1))));
  }
  return s;
}

TEST(OrderSemanticsOracle, RandomContextsSatisfyContracts) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RandomScenario s = MakeScenario(seed);
    std::vector<std::string> failures = VerifyOperationSemantics(
        s.columns, s.ctx, s.specs, s.targets, s.substitution_eq);
    for (const std::string& f : failures) {
      ADD_FAILURE() << "seed " << seed << ": " << f;
    }
  }
}

// A targeted context exercising every §4 mechanism at once: equivalence
// (a=b), constant (e=1), and an FD ({a} -> {c}).
TEST(OrderSemanticsOracle, CanonicalExampleContext) {
  std::vector<ColumnId> columns = {Col(0), Col(1), Col(2), Col(3), Col(4)};
  OrderFacts ctx;
  ctx.eq.AddEquivalence(Col(0), Col(1));
  ctx.eq.AddConstant(Col(4), Value::Int(1));
  ctx.fds.Add(ColumnSet{Col(0)}, ColumnSet{Col(2)});

  std::vector<OrderSpec> specs = {
      OrderSpec{{Col(1)}, {Col(2)}, {Col(3)}},       // b, c, d
      OrderSpec{{Col(0)}, {Col(3)}},                 // a, d
      OrderSpec{{Col(4)}, {Col(0)}},                 // e (const), a
      OrderSpec{{Col(2), SortDirection::kDescending}, {Col(0)}},
  };
  EquivalenceClasses future;
  future.AddEquivalence(Col(3), Col(2));
  std::vector<std::string> failures = VerifyOperationSemantics(
      columns, ctx, specs, ColumnSet{Col(2), Col(3)}, future);
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// The oracle's checkers must reject wrong claims. (a) and (b) order a
// two-column domain differently; implication and equivalence checks both
// have to produce counterexamples, or the random sweep proves nothing.
TEST(OrderSemanticsOracle, CheckersHaveTeeth) {
  OrderFacts empty_ctx;
  SemanticsDomain domain = BuildSemanticsDomain({Col(0), Col(1)}, empty_ctx,
                                                /*value_count=*/2);
  ASSERT_EQ(domain.tuples.size(), 4u);

  OrderSpec by_a{{Col(0)}};
  OrderSpec by_b{{Col(1)}};
  EXPECT_FALSE(CheckImplication(domain, by_a, by_b).empty());
  EXPECT_FALSE(CheckEquivalentOrders(domain, by_a, by_b).empty());
  // A prefix is implied by the longer order but not equivalent to it.
  OrderSpec by_ab{{Col(0)}, {Col(1)}};
  EXPECT_TRUE(CheckImplication(domain, by_ab, by_a).empty());
  EXPECT_FALSE(CheckImplication(domain, by_a, by_ab).empty());
  EXPECT_FALSE(CheckEquivalentOrders(domain, by_ab, by_a).empty());
  // Descending is not ascending.
  OrderSpec by_a_desc{{Col(0), SortDirection::kDescending}};
  EXPECT_FALSE(CheckEquivalentOrders(domain, by_a, by_a_desc).empty());

  // Domain construction honors the context: with a=b only the diagonal
  // tuples survive, and an FD {a}->{b} thins pairs the same way.
  OrderFacts eq_ctx;
  eq_ctx.eq.AddEquivalence(Col(0), Col(1));
  SemanticsDomain eq_domain = BuildSemanticsDomain({Col(0), Col(1)}, eq_ctx,
                                                   2);
  EXPECT_EQ(eq_domain.tuples.size(), 2u);
  // Under a=b, ordering by a IS ordering by b.
  EXPECT_TRUE(CheckEquivalentOrders(eq_domain, by_a, by_b).empty());
}

}  // namespace
}  // namespace ordopt
