// Tests for Reduce Order (§4.1) — the paper's worked examples plus
// randomized property tests that reduction never changes sort semantics.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "orderopt/operations.h"

namespace ordopt {
namespace {

// Columns of a three-table toy query: a = t0, b = t1, c = t2.
const ColumnId ax(0, 0), ay(0, 1), az(0, 2);
const ColumnId bx(1, 0), by(1, 1);
const ColumnId cx(2, 0);

TEST(ReduceOrder, ConstantColumnRemoved) {
  // §4.1: I = (x, y) with x = 10 applied reduces to (y).
  OrderFacts ctx;
  ctx.eq.AddConstant(ax, Value::Int(10));
  OrderSpec spec{{ax}, {ay}};
  OrderSpec reduced = ReduceOrder(spec, ctx);
  EXPECT_EQ(reduced, (OrderSpec{{ay}}));
}

TEST(ReduceOrder, ConstantOnlyOrderReducesToEmpty) {
  // §4.1: with x = 10 applied, I = (x) reduces to the empty order, which
  // any stream satisfies.
  OrderFacts ctx;
  ctx.eq.AddConstant(ax, Value::Int(10));
  EXPECT_TRUE(ReduceOrder(OrderSpec{{ax}}, ctx).empty());
}

TEST(ReduceOrder, EquivalenceRewritesToClassHead) {
  // §4.1: x = y applied lets OP = (y, z) be rewritten as (x, z).
  OrderFacts ctx;
  ctx.eq.AddEquivalence(ax, bx);  // head is ax (smaller id)
  OrderSpec op{{bx}, {az}};
  OrderSpec reduced = ReduceOrder(op, ctx);
  EXPECT_EQ(reduced, (OrderSpec{{ax}, {az}}));
}

TEST(ReduceOrder, KeyMakesSuffixRedundant) {
  // §4.1: with z a key, I = (z, y) reduces to (z).
  OrderFacts ctx;
  ctx.fds.AddKey(ColumnSet{ax}, ColumnSet{ax, ay, az});
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {ay}}, ctx), (OrderSpec{{ax}}));
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {az}, {ay}}, ctx),
            (OrderSpec{{ax}}));
}

TEST(ReduceOrder, DuplicateColumnRemoved) {
  OrderFacts ctx;
  OrderSpec spec{{ax}, {ay}, {ax}};
  EXPECT_EQ(ReduceOrder(spec, ctx), (OrderSpec{{ax}, {ay}}));
}

TEST(ReduceOrder, DuplicateViaEquivalence) {
  // (a.x, b.x) with a.x = b.x applied is really one column.
  OrderFacts ctx;
  ctx.eq.AddEquivalence(ax, bx);
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {bx}}, ctx), (OrderSpec{{ax}}));
}

TEST(ReduceOrder, DirectionPreserved) {
  OrderFacts ctx;
  ctx.eq.AddEquivalence(ax, bx);
  OrderSpec spec{{bx, SortDirection::kDescending}, {ay}};
  OrderSpec reduced = ReduceOrder(spec, ctx);
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced.at(0).col, ax);
  EXPECT_EQ(reduced.at(0).dir, SortDirection::kDescending);
}

TEST(ReduceOrder, FdChainNotFollowedInSimpleMode) {
  // Simple mode uses the paper's single-FD subset test: {a}->{b}, {b}->{c}
  // does NOT remove c after (a), but transitive mode does.
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax}, ColumnSet{ay});
  ctx.fds.Add(ColumnSet{ay}, ColumnSet{az});
  OrderSpec spec{{ax}, {az}};
  EXPECT_EQ(ReduceOrder(spec, ctx), (OrderSpec{{ax}, {az}}));
  ctx.transitive_fds = true;
  EXPECT_EQ(ReduceOrder(spec, ctx), (OrderSpec{{ax}}));
}

TEST(ReduceOrder, BackwardScanUsesFullPrecedingSet) {
  // (x, y, z) with {x,y}->{z}: z removed even though neither x nor y alone
  // determines it.
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax, ay}, ColumnSet{az});
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {ay}, {az}}, ctx),
            (OrderSpec{{ax}, {ay}}));
}

TEST(ReduceOrder, ConstantHeadColumnsInFdAreFree) {
  // FD {x, y} -> {z} with y bound to a constant behaves like {x} -> {z}.
  OrderFacts ctx;
  ctx.fds.Add(ColumnSet{ax, ay}, ColumnSet{az});
  ctx.eq.AddConstant(ay, Value::Int(7));
  EXPECT_EQ(ReduceOrder(OrderSpec{{ax}, {az}}, ctx), (OrderSpec{{ax}}));
}

// ---------------------------------------------------------------------------
// Property test: reduction preserves sort semantics. We generate random
// rows that *actually satisfy* a set of constraints (constants, column
// equalities, functional dependencies), derive the OrderFacts from those
// constraints, and verify that sorting by the reduced specification yields
// a stream ordered according to the original specification — the
// correctness claim of §4.1's proof.
// ---------------------------------------------------------------------------

struct RandomInstance {
  std::vector<std::vector<int64_t>> rows;  // 6 columns
  OrderFacts ctx;
  std::vector<ColumnId> cols;
};

RandomInstance MakeInstance(Rng* rng) {
  RandomInstance inst;
  const int kCols = 6;
  for (int c = 0; c < kCols; ++c) inst.cols.emplace_back(0, c);

  // Base data: uniform small domains so duplicates are common.
  int n = static_cast<int>(rng->Uniform(20, 120));
  inst.rows.assign(static_cast<size_t>(n), std::vector<int64_t>(kCols));
  for (auto& row : inst.rows) {
    for (int c = 0; c < kCols; ++c) row[static_cast<size_t>(c)] =
        rng->Uniform(0, 5);
  }

  // Impose a constant on column 0 half the time.
  if (rng->Chance(0.5)) {
    for (auto& row : inst.rows) row[0] = 3;
    inst.ctx.eq.AddConstant(inst.cols[0], Value::Int(3));
  }
  // Impose col1 == col2 half the time.
  if (rng->Chance(0.5)) {
    for (auto& row : inst.rows) row[2] = row[1];
    inst.ctx.eq.AddEquivalence(inst.cols[1], inst.cols[2]);
  }
  // Impose FD {col3} -> {col4} half the time (col4 = f(col3)).
  if (rng->Chance(0.5)) {
    for (auto& row : inst.rows) row[4] = (row[3] * 7 + 1) % 5;
    inst.ctx.fds.Add(ColumnSet{inst.cols[3]}, ColumnSet{inst.cols[4]});
  }
  // Impose FD {col1, col3} -> {col5} half the time.
  if (rng->Chance(0.5)) {
    for (auto& row : inst.rows) row[5] = (row[1] + row[3]) % 5;
    inst.ctx.fds.Add(ColumnSet{inst.cols[1], inst.cols[3]},
                     ColumnSet{inst.cols[5]});
  }
  return inst;
}

// Comparator for an OrderSpec over the instance's rows.
bool OrderedBy(const std::vector<std::vector<int64_t>>& rows,
               const OrderSpec& spec) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const OrderElement& e : spec) {
      int64_t a = rows[i - 1][static_cast<size_t>(e.col.column)];
      int64_t b = rows[i][static_cast<size_t>(e.col.column)];
      if (a == b) continue;
      bool asc_ok = a < b;
      if ((e.dir == SortDirection::kAscending) != asc_ok) return false;
      break;  // strictly ordered at this column
    }
  }
  return true;
}

class ReduceOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReduceOrderProperty, SortingByReducedSatisfiesOriginal) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  RandomInstance inst = MakeInstance(&rng);

  // Random order spec of 1..5 distinct columns with random directions.
  OrderSpec original;
  std::vector<int> perm = {0, 1, 2, 3, 4, 5};
  for (int i = 5; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[static_cast<size_t>(rng.Uniform(0, i))]);
  }
  int len = static_cast<int>(rng.Uniform(1, 5));
  for (int i = 0; i < len; ++i) {
    original.Append(OrderElement(inst.cols[static_cast<size_t>(perm[i])],
                                 rng.Chance(0.5)
                                     ? SortDirection::kAscending
                                     : SortDirection::kDescending));
  }

  for (bool transitive : {false, true}) {
    inst.ctx.transitive_fds = transitive;
    OrderSpec reduced = ReduceOrder(original, inst.ctx);

    // Sorting strictly by the reduced spec...
    auto rows = inst.rows;
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const std::vector<int64_t>& a,
                         const std::vector<int64_t>& b) {
                       for (const OrderElement& e : reduced) {
                         int64_t va = a[static_cast<size_t>(e.col.column)];
                         int64_t vb = b[static_cast<size_t>(e.col.column)];
                         if (va != vb) {
                           return e.dir == SortDirection::kAscending
                                      ? va < vb
                                      : va > vb;
                         }
                       }
                       return false;
                     });
    // ...must leave the stream ordered by the original spec.
    EXPECT_TRUE(OrderedBy(rows, original))
        << "seed=" << GetParam() << " transitive=" << transitive
        << " original=" << original.ToString()
        << " reduced=" << reduced.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ReduceOrderProperty,
                         ::testing::Range(0, 120));

}  // namespace
}  // namespace ordopt
