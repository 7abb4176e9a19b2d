// Direct tests for the order scan (§5.1): interesting-order generation
// from ORDER BY / GROUP BY / DISTINCT, covering, homogenized pushdown
// through boxes, optimistic contexts, and the disabled baseline.

#include <gtest/gtest.h>

#include "common/random.h"
#include "optimizer/order_scan.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/rewrite.h"
#include "storage/database.h"

namespace ordopt {
namespace {

class OrderScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(3);
    {
      TableDef def;
      def.name = "a";
      def.columns = {{"x", DataType::kInt64}, {"y", DataType::kInt64}};
      Table* t = db_.CreateTable(def).value();
      for (int i = 0; i < 50; ++i) {
        t->AppendRow({Value::Int(rng.Uniform(0, 9)),
                      Value::Int(rng.Uniform(0, 9))});
      }
    }
    {
      TableDef def;
      def.name = "b";
      def.columns = {{"x", DataType::kInt64}, {"z", DataType::kInt64}};
      def.AddUniqueKey({"x"});
      Table* t = db_.CreateTable(def).value();
      for (int i = 0; i < 10; ++i) {
        t->AppendRow({Value::Int(i), Value::Int(i * 3)});
      }
    }
    ASSERT_TRUE(db_.FinalizeAll().ok());
  }

  std::unique_ptr<Query> Bind(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto q = BindQuery(*stmt.value(), db_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    MergeDerivedTables(q.value().get());
    return std::move(q).value();
  }

  Database db_;
};

TEST_F(OrderScanTest, OrderByBecomesSortAheadOrder) {
  auto q = Bind("select x, y from a order by x desc, y");
  OrderScan scan(*q, /*enabled=*/true);
  scan.Run();
  const BoxOrderInfo& info = scan.info(q->root);
  EXPECT_EQ(info.required_output.size(), 2u);
  ASSERT_EQ(info.sort_ahead.size(), 1u);
  EXPECT_EQ(info.sort_ahead[0], info.required_output);
}

TEST_F(OrderScanTest, DisabledModeGeneratesNothing) {
  auto q = Bind("select x, y from a order by x");
  OrderScan scan(*q, /*enabled=*/false);
  scan.Run();
  const BoxOrderInfo& info = scan.info(q->root);
  EXPECT_EQ(info.required_output.size(), 1u);  // the requirement stays
  EXPECT_TRUE(info.sort_ahead.empty());        // but nothing is derived
}

TEST_F(OrderScanTest, GroupingCoveredWithOrderByPushesOneOrder) {
  // GROUP BY x, y + ORDER BY y: the cover (y, x) is pushed into the join
  // box, plus the canonical grouping fallback (x, y).
  auto q = Bind(
      "select x, y, count(*) from a group by x, y order by y");
  OrderScan scan(*q, true);
  scan.Run();
  const QgmBox* group_box = q->root->quantifiers[0].input;
  ASSERT_NE(group_box, nullptr);
  const BoxOrderInfo& ginfo = scan.info(group_box);
  ASSERT_GE(ginfo.preferred_sorts.size(), 2u);
  // The covered order leads with the ORDER BY column.
  EXPECT_EQ(ginfo.preferred_sorts[0].at(0).col,
            group_box->group_columns[1]);  // y
  // The join box below received them as sort-ahead orders.
  const QgmBox* join_box = group_box->quantifiers[0].input;
  const BoxOrderInfo& jinfo = scan.info(join_box);
  EXPECT_GE(jinfo.sort_ahead.size(), 1u);
}

TEST_F(OrderScanTest, UncoverableOrderByFallsBackToGroupingSort) {
  // ORDER BY on the aggregate: the cover fails; only the grouping fallback
  // is pushed.
  auto q = Bind(
      "select x, count(*) as n from a group by x order by n desc");
  OrderScan scan(*q, true);
  scan.Run();
  const QgmBox* group_box = q->root->quantifiers[0].input;
  const BoxOrderInfo& ginfo = scan.info(group_box);
  ASSERT_EQ(ginfo.preferred_sorts.size(), 1u);
  EXPECT_EQ(ginfo.preferred_sorts[0].Columns(),
            (ColumnSet{group_box->group_columns[0]}));
}

TEST_F(OrderScanTest, OptimisticContextAssumesPredicatesApplied) {
  // The order scan reduces with ALL predicates assumed applied (§5.1):
  // with a.y = 5, the interesting order (y, x) reduces to (x).
  auto q = Bind("select x, y from a where y = 5 order by y, x");
  OrderScan scan(*q, true);
  scan.Run();
  const BoxOrderInfo& info = scan.info(q->root);
  ASSERT_EQ(info.sort_ahead.size(), 1u);
  EXPECT_EQ(info.sort_ahead[0].size(), 1u);
}

TEST_F(OrderScanTest, DistinctProducesGeneralRequirement) {
  auto q = Bind("select distinct x, y from a");
  OrderScan scan(*q, true);
  scan.Run();
  const BoxOrderInfo& info = scan.info(q->root);
  EXPECT_FALSE(info.distinct_requirement.empty());
  EXPECT_EQ(info.distinct_requirement.Columns().size(), 2u);
}

TEST_F(OrderScanTest, PushdownIntoUnmergedDerivedBoxHomogenizes) {
  // The grouped derived table cannot merge; the outer ORDER BY on its
  // pass-through column is homogenized and pushed into the child box.
  auto q = Bind(
      "select v.x, v.n from "
      "(select x, count(*) as n from a group by x) v "
      "order by v.x");
  OrderScan scan(*q, true);
  scan.Run();
  const QgmBox* child = q->root->quantifiers[0].input;
  ASSERT_NE(child, nullptr);
  // child is the derived select box over the group-by stack; walk down to
  // the group-by box, which should have received the (x) preference.
  const QgmBox* walk = child;
  while (walk->kind != QgmBox::Kind::kGroupBy) {
    ASSERT_FALSE(walk->quantifiers.empty());
    ASSERT_FALSE(walk->quantifiers[0].IsBase());
    walk = walk->quantifiers[0].input;
  }
  const BoxOrderInfo& ginfo = scan.info(walk);
  ASSERT_FALSE(ginfo.preferred_sorts.empty());
  EXPECT_EQ(ginfo.preferred_sorts[0].at(0).col, walk->group_columns[0]);
}

TEST_F(OrderScanTest, EquivalenceHomogenizationAcrossJoin) {
  // ORDER BY a.x over a join with a.x = b.x: the pushed-down order for
  // the b side substitutes b.x.
  auto q = Bind("select a.x, b.z from a, b where a.x = b.x order by a.x");
  OrderScan scan(*q, true);
  scan.Run();
  const BoxOrderInfo& info = scan.info(q->root);
  ASSERT_GE(info.sort_ahead.size(), 1u);
  // The optimistic context knows a.x = b.x: TestOrder accepts a b.x order
  // for the (a.x) interesting order.
  OrderSpec b_order{{info.optimistic_ctx.eq->ClassMembers(
      info.sort_ahead[0].at(0).col)[1]}};
  EXPECT_TRUE(TestOrder(info.sort_ahead[0], b_order, info.optimistic_ctx));
}

}  // namespace
}  // namespace ordopt
