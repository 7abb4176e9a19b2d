// Self-tests of the benchmark's own helpers (harness.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "tpcd/tpcd.h"

namespace tpcdbench {
namespace {

using ordopt::OperatorProfile;
using ordopt::OpKind;
using ordopt::PlanNode;
using ordopt::Row;
using ordopt::Value;

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10000), 99.0);  // capped: the metric is a p99
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(TailPercentile(500), 98.0);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(0), 0.0);
  // Exactly ten samples lie beyond the reported percentile.
  for (size_t n : {20u, 37u, 150u, 999u}) {
    EXPECT_NEAR(static_cast<double>(n) * (100.0 - TailPercentile(n)) / 100.0,
                10.0, 1e-9)
        << n;
  }
}

TEST(Quantile, Interpolates) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_EQ(Quantile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(SpeedFactor, ScalesToTheNominalHost) {
  const double n = kNominalCalibrationSeconds;
  EXPECT_DOUBLE_EQ(SpeedFactor(n, n), 1.0);
  // A host at half speed doubles wall times; the factor halves them back.
  EXPECT_DOUBLE_EQ(SpeedFactor(2 * n, 2 * n), 0.5);
  // The calibrations before and after an epoch count alike.
  EXPECT_DOUBLE_EQ(SpeedFactor(n, 3 * n), 0.5);
  EXPECT_DOUBLE_EQ(SpeedFactor(0.5 * n, 0.5 * n), 2.0);
}

TEST(CalibrationSeconds, MeasuresTheKernel) {
  const double s = CalibrationSeconds(3);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

std::shared_ptr<PlanNode> Node(OpKind kind,
                               std::vector<std::shared_ptr<PlanNode>> kids) {
  auto n = std::make_shared<PlanNode>();
  n->kind = kind;
  for (auto& k : kids) n->children.push_back(k);
  return n;
}

OperatorProfile Profile(const PlanNode* node, int64_t total_ns,
                        int64_t rows = 0) {
  OperatorProfile p;
  p.node = node;
  p.stats.next_ns = total_ns;
  p.stats.rows_out = rows;
  return p;
}

TEST(OperatorSelfTimes, SerialSubtractsChildren) {
  auto scan = Node(OpKind::kTableScan, {});
  auto sort = Node(OpKind::kSort, {scan});
  auto project = Node(OpKind::kProject, {sort});
  // Post-order, as ExecutePlan emits it.
  std::vector<OperatorProfile> profile = {Profile(scan.get(), 30, 7),
                                          Profile(sort.get(), 80, 7),
                                          Profile(project.get(), 100, 7)};
  std::vector<OperatorSelf> ops = OperatorSelfTimes(*project, profile);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, OpKind::kProject);
  EXPECT_EQ(ops[0].parent, -1);
  EXPECT_EQ(ops[0].self_ns, 20);
  EXPECT_EQ(ops[1].kind, OpKind::kSort);
  EXPECT_EQ(ops[1].parent, 0);
  EXPECT_EQ(ops[1].self_ns, 50);
  EXPECT_EQ(ops[2].kind, OpKind::kTableScan);
  EXPECT_EQ(ops[2].parent, 1);
  EXPECT_EQ(ops[2].self_ns, 30);
  EXPECT_EQ(ops[2].rows_out, 7);
}

TEST(OperatorSelfTimes, ExchangeKeepsWallTimeAndWorkersKeepSummedTime) {
  // Four workers ran Filter over TableScan; their stats are summed, so the
  // chain reports more time than the exchange's wall time.
  auto scan = Node(OpKind::kTableScan, {});
  auto filter = Node(OpKind::kFilter, {scan});
  auto exchange = Node(OpKind::kExchange, {filter});
  auto project = Node(OpKind::kProject, {exchange});
  std::vector<OperatorProfile> profile = {
      Profile(scan.get(), 100), Profile(filter.get(), 120),
      Profile(exchange.get(), 45), Profile(project.get(), 50)};
  std::vector<OperatorSelf> ops = OperatorSelfTimes(*project, profile);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].self_ns, 5);    // Project: 50 - exchange wall 45
  EXPECT_EQ(ops[1].self_ns, 45);   // Exchange: its wall time, not 45 - 120
  EXPECT_EQ(ops[2].self_ns, 20);   // Filter: summed 120 - summed 100
  EXPECT_EQ(ops[3].self_ns, 100);  // TableScan: summed worker time
  // Two joins share a parent; a child slower than its parent (timer noise)
  // clamps to zero instead of going negative.
  auto left = Node(OpKind::kIndexScan, {});
  auto right = Node(OpKind::kTableScan, {});
  auto join = Node(OpKind::kHashJoin, {left, right});
  ops = OperatorSelfTimes(*join, {Profile(left.get(), 40),
                                  Profile(right.get(), 30),
                                  Profile(join.get(), 60)});
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].self_ns, 0);
  EXPECT_EQ(ops[1].self_ns, 40);
  EXPECT_EQ(ops[2].self_ns, 30);
}

Row MakeRow(int64_t k, double v, const std::string& s) {
  return Row{Value::Int(k), Value::Double(v), Value::Str(s)};
}

TEST(DigestRows, IgnoresRowOrderButNotContent) {
  std::vector<Row> rows = {MakeRow(1, 0.5, "a"), MakeRow(2, 1.5, "b"),
                           MakeRow(3, 2.5, "c")};
  std::vector<Row> reversed(rows.rbegin(), rows.rend());
  EXPECT_EQ(DigestRows(rows), DigestRows(reversed));

  // Another summation order of the same numbers still matches.
  std::vector<Row> resummed = rows;
  resummed[0] = MakeRow(1, (0.1 + 0.2) + 0.2, "a");
  std::vector<Row> exact = rows;
  exact[0] = MakeRow(1, 0.1 + (0.2 + 0.2), "a");
  EXPECT_EQ(DigestRows(resummed), DigestRows(exact));

  std::vector<Row> changed = rows;
  changed[1] = MakeRow(2, 1.5, "x");
  EXPECT_FALSE(DigestRows(rows) == DigestRows(changed));
  // Multisets: {a, a, b} and {a, b, b} differ.
  std::vector<Row> aab = {rows[0], rows[0], rows[1]};
  std::vector<Row> abb = {rows[0], rows[1], rows[1]};
  EXPECT_FALSE(DigestRows(aab) == DigestRows(abb));
  // Moving a value to another column changes the digest.
  std::vector<Row> swapped = {Row{Value::Str("a"), Value::Str("b")}};
  std::vector<Row> original = {Row{Value::Str("b"), Value::Str("a")}};
  EXPECT_FALSE(DigestRows(swapped) == DigestRows(original));
}

TEST(FollowsOrderBy, ChecksEveryKeyInTurn) {
  std::vector<Row> rows = {MakeRow(3, 1.0, "a"), MakeRow(3, 2.0, "b"),
                           MakeRow(1, 0.0, "c")};
  EXPECT_TRUE(FollowsOrderBy(rows, {{0, true}, {1, false}}));
  EXPECT_FALSE(FollowsOrderBy(rows, {{0, true}, {1, true}}));
  EXPECT_FALSE(FollowsOrderBy(rows, {{0, false}}));
  EXPECT_TRUE(FollowsOrderBy({}, {{0, false}}));
}

std::string StreamText(bool mixed, uint64_t seed, int client, int n) {
  RequestStream stream(mixed, seed, client);
  std::string text;
  for (int i = 0; i < n; ++i) {
    Request r = stream.Next();
    text += RequestSql(r.tmpl, r.literal);
    text += '\n';
  }
  return text;
}

TEST(RequestStream, SameSeedGivesByteIdenticalStream) {
  EXPECT_EQ(StreamText(true, 7, 0, 500), StreamText(true, 7, 0, 500));
  EXPECT_NE(StreamText(true, 7, 0, 500), StreamText(true, 8, 0, 500));
  EXPECT_NE(StreamText(true, 7, 0, 500), StreamText(true, 7, 1, 500));
  // Round-robin streams cycle the canonical queries whatever the seed.
  EXPECT_EQ(StreamText(false, 7, 0, 10), StreamText(false, 8, 0, 10));
}

TEST(RequestStream, MixedStreamDrawsEveryTemplateAndLiteralSet) {
  RequestStream stream(true, 11, 2);
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < 2000; ++i) {
    Request r = stream.Next();
    seen.insert({r.tmpl, r.literal});
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kTemplates * kLiteralSets));
}

TEST(RequestSql, SetZeroIsCanonicalAndSetsDiffer) {
  EXPECT_EQ(RequestSql(kQ3, 0), ordopt::tpcd_queries::kQuery3);
  EXPECT_EQ(RequestSql(kPricing, 0), ordopt::tpcd_queries::kPricingSummary);
  EXPECT_EQ(RequestSql(kDistinct, 0),
            ordopt::tpcd_queries::kDistinctShipdates);
  EXPECT_EQ(RequestSql(kLate, 0), ordopt::tpcd_queries::kLateOrders);
  EXPECT_EQ(RequestSql(kRegion, 0), ordopt::tpcd_queries::kRegionRevenue);
  std::set<std::string> texts;
  for (int t = 0; t < kTemplates; ++t) {
    for (int l = 0; l < kLiteralSets; ++l) texts.insert(RequestSql(t, l));
  }
  EXPECT_EQ(texts.size(), static_cast<size_t>(kTemplates * kLiteralSets));
  // Every literal of set 1 replaced both occurrences of Q3's date.
  EXPECT_EQ(RequestSql(kQ3, 1).find("1995-03-15"), std::string::npos);
}

}  // namespace
}  // namespace tpcdbench
