// TPC-D generator and benchmark-query tests: determinism, schema shape,
// foreign-key integrity, and cross-configuration result equality for the
// paper's Query 3.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "exec/engine.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

TEST(Tpcd, SchemaAndCounts) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  const Table* customer = db.GetTable("customer");
  const Table* orders = db.GetTable("orders");
  const Table* lineitem = db.GetTable("lineitem");
  ASSERT_NE(customer, nullptr);
  ASSERT_NE(orders, nullptr);
  ASSERT_NE(lineitem, nullptr);
  EXPECT_EQ(customer->row_count(), 150);
  EXPECT_EQ(orders->row_count(), 1500);
  // 1..7 lines per order.
  EXPECT_GE(lineitem->row_count(), orders->row_count());
  EXPECT_LE(lineitem->row_count(), orders->row_count() * 7);
  EXPECT_NE(db.GetTable("nation"), nullptr);
  EXPECT_NE(db.GetTable("region"), nullptr);
}

TEST(Tpcd, DeterministicAcrossRuns) {
  Database db1, db2;
  TpcdConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db1, config).ok());
  ASSERT_TRUE(LoadTpcd(&db2, config).ok());
  const Table* o1 = db1.GetTable("orders");
  const Table* o2 = db2.GetTable("orders");
  ASSERT_EQ(o1->row_count(), o2->row_count());
  for (int64_t i = 0; i < o1->row_count(); ++i) {
    for (size_t c = 0; c < o1->row(i).size(); ++c) {
      ASSERT_EQ(o1->row(i)[c].Compare(o2->row(i)[c]), 0);
    }
  }
}

TEST(Tpcd, ForeignKeysResolve) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  const Table* customer = db.GetTable("customer");
  const Table* orders = db.GetTable("orders");
  const Table* lineitem = db.GetTable("lineitem");
  std::set<int64_t> custkeys, orderkeys;
  for (const Row& r : customer->rows()) custkeys.insert(r[0].AsInt());
  for (const Row& r : orders->rows()) {
    orderkeys.insert(r[0].AsInt());
    EXPECT_TRUE(custkeys.count(r[1].AsInt()) > 0);
  }
  EXPECT_EQ(orderkeys.size(), static_cast<size_t>(orders->row_count()));
  for (const Row& r : lineitem->rows()) {
    ASSERT_TRUE(orderkeys.count(r[0].AsInt()) > 0);
  }
}

TEST(Tpcd, LineitemClusteredByOrderkey) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  const Table* lineitem = db.GetTable("lineitem");
  for (int64_t i = 1; i < lineitem->row_count(); ++i) {
    ASSERT_LE(lineitem->row(i - 1)[0].AsInt(), lineitem->row(i)[0].AsInt());
  }
}

TEST(Tpcd, Query3SameResultsAllConfigs) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());

  std::vector<std::vector<std::string>> reference;
  bool first = true;
  for (bool order_opt : {true, false}) {
    for (bool hash_ops : {true, false}) {
      OptimizerConfig cfg;
      cfg.enable_order_optimization = order_opt;
      cfg.enable_hash_join = hash_ops;
      cfg.enable_hash_grouping = hash_ops;
      QueryEngine engine(&db, cfg);
      Result<QueryResult> r = engine.Run(tpcd_queries::kQuery3);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Canonical rendering (Q3's ORDER BY is not a total order, so rows
      // are compared as a sorted multiset).
      std::vector<std::vector<std::string>> rows;
      for (const Row& row : r.value().rows) {
        std::vector<std::string> rendered;
        for (const Value& v : row) {
          rendered.push_back(v.type() == DataType::kDouble
                                 ? StrFormat("%.4f", v.AsDouble())
                                 : v.ToString());
        }
        rows.push_back(std::move(rendered));
      }
      std::sort(rows.begin(), rows.end());
      if (first) {
        reference = rows;
        ASSERT_FALSE(reference.empty());
        first = false;
      } else {
        EXPECT_EQ(rows, reference)
            << "order_opt=" << order_opt << " hash=" << hash_ops;
      }
    }
  }
}

TEST(Tpcd, OtherBenchmarkQueriesRun) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  QueryEngine engine(&db);
  auto r1 = engine.Run(tpcd_queries::kPricingSummary);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GT(r1.value().rows.size(), 0u);
  auto r2 = engine.Run(tpcd_queries::kDistinctShipdates);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_GT(r2.value().rows.size(), 0u);
  // Q4-style semi-join with LIMIT.
  auto r3 = engine.Run(tpcd_queries::kLateOrders);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_GT(r3.value().rows.size(), 0u);
  EXPECT_LE(r3.value().rows.size(), 20u);
  // Q5-style 5-way join.
  auto r4 = engine.Run(tpcd_queries::kRegionRevenue);
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_GT(r4.value().rows.size(), 0u);
  EXPECT_LE(r4.value().rows.size(), 25u);
  // Revenue output is sorted descending.
  for (size_t i = 1; i < r4.value().rows.size(); ++i) {
    EXPECT_GE(r4.value().rows[i - 1][1].AsDouble(),
              r4.value().rows[i][1].AsDouble());
  }
}

// Under the hash profile (hash operators, 4 exchange workers) pricing
// summary aggregates thousands of lineitems into a handful of groups, in
// two hash group-bys: a partial one in each worker and the final one above
// the exchange. Each buffers one row per group (per worker), never the
// input.
TEST(Tpcd, PricingSummaryHashGroupByBuffersOnlyGroups) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  OptimizerConfig cfg;
  cfg.parallel_workers = 4;
  QueryEngine engine(&db, cfg);
  auto r = engine.RunAnalyzed(tpcd_queries::kPricingSummary);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  const int64_t groups = static_cast<int64_t>(q.rows.size());
  ASSERT_GT(groups, 0);
  ASSERT_LE(groups, 6);
  int hash_group_bys = 0;
  for (const OperatorProfile& p : q.op_profile) {
    if (p.node->kind != OpKind::kHashGroupBy) continue;
    ++hash_group_bys;
    EXPECT_LE(p.stats.buffered_rows_peak, groups);
    EXPECT_GT(p.stats.rows_out, 0);
  }
  EXPECT_EQ(hash_group_bys, 2);
  EXPECT_GT(q.metrics.rows_scanned, 1000);
}

// Under the DB2/CS profile the pricing summary's sort aggregates in place:
// its 6 groups stay resident, so with a sort budget far below the input no
// row is sorted, buffered or spilled, and the group-by holds one row per
// group.
TEST(Tpcd, PricingSummarySortProfileAggregatesInSort) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  OptimizerConfig cfg;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  cfg.parallel_workers = 1;
  cfg.cost_params.sort_memory_rows = 1000;
  QueryEngine engine(&db, cfg);
  auto r = engine.RunAnalyzed(tpcd_queries::kPricingSummary);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  const int64_t groups = static_cast<int64_t>(q.rows.size());
  ASSERT_GT(groups, 0);
  ASSERT_LE(groups, 6);
  ASSERT_GT(q.metrics.rows_scanned, cfg.cost_params.sort_memory_rows);
  EXPECT_EQ(q.metrics.spill_runs, 0);
  EXPECT_EQ(q.metrics.rows_sorted, 0);
  int sorts = 0;
  int group_bys = 0;
  for (const OperatorProfile& p : q.op_profile) {
    if (p.node->kind == OpKind::kSort) {
      ++sorts;
      EXPECT_EQ(p.stats.rows_out, 0);
    } else if (p.node->kind == OpKind::kSortGroupBy) {
      ++group_bys;
      EXPECT_EQ(p.stats.rows_out, groups);
      EXPECT_LE(p.stats.buffered_rows_peak, groups);
    }
  }
  EXPECT_EQ(sorts, 1);
  EXPECT_EQ(group_bys, 1);
}

TEST(Tpcd, CrossConfigAgreementOnExtendedQueries) {
  Database db;
  TpcdConfig config;
  config.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, config).ok());
  for (const char* sql :
       {tpcd_queries::kRegionRevenue, tpcd_queries::kPricingSummary}) {
    std::vector<std::vector<std::string>> reference;
    bool first = true;
    for (int mode = 0; mode < 3; ++mode) {
      OptimizerConfig cfg;
      if (mode == 1) cfg.enable_order_optimization = false;
      if (mode == 2) {
        cfg.enable_hash_join = false;
        cfg.enable_hash_grouping = false;
      }
      QueryEngine engine(&db, cfg);
      auto r = engine.Run(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<std::vector<std::string>> rows;
      for (const Row& row : r.value().rows) {
        std::vector<std::string> rendered;
        for (const Value& v : row) {
          rendered.push_back(v.type() == DataType::kDouble
                                 ? StrFormat("%.3f", v.AsDouble())
                                 : v.ToString());
        }
        rows.push_back(std::move(rendered));
      }
      std::sort(rows.begin(), rows.end());
      if (first) {
        reference = rows;
        first = false;
      } else {
        EXPECT_EQ(rows, reference) << "mode=" << mode << " sql=" << sql;
      }
    }
  }
}

}  // namespace
}  // namespace ordopt
