// Plan-cache tests: parameterized-text keying (literal stripping, one
// entry per template whatever the literals), LRU eviction, stats-epoch
// invalidation, quarantine, the leader/waiter stampede protocol (one
// planner per key however many threads race the lookup), and the
// integration behavior the service relies on — a published plan
// re-executes to the same rows the planning run produced.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "query_test_util.h"
#include "service/plan_cache.h"

namespace ordopt {
namespace {

PreparedPlan FakePlan(const std::string& tag) {
  PreparedPlan p;
  p.plan_text = tag;
  return p;
}

TEST(NormalizeQueryText, CollapsesWhitespaceAndCase) {
  EXPECT_EQ(NormalizeQueryText("SELECT  x\n\tFROM   T"),
            NormalizeQueryText("select x from t"));
  EXPECT_EQ(NormalizeQueryText("  select 1  "), "select 1");
}

TEST(NormalizeQueryText, PreservesStringLiterals) {
  // Case inside a literal is semantic; outside it is not.
  EXPECT_EQ(NormalizeQueryText("SELECT 'MiXeD' FROM t"),
            "select 'MiXeD' from t");
  EXPECT_NE(NormalizeQueryText("select 'a' from t"),
            NormalizeQueryText("select 'A' from t"));
  // Whitespace inside a literal survives; a doubled quote does not end it.
  EXPECT_EQ(NormalizeQueryText("select 'two  spaces' from t"),
            "select 'two  spaces' from t");
  EXPECT_EQ(NormalizeQueryText("select 'It''s  A' FROM T"),
            "select 'It''s  A' from t");
}

TEST(ParameterizeQueryText, StripsLiteralsIntoTemplate) {
  std::vector<std::string> literals;
  EXPECT_EQ(ParameterizeQueryText(
                "select x from t where d >= date('1995-03-15') and p > 24",
                &literals),
            "select x from t where d >= date(?) and p > ?");
  ASSERT_EQ(literals.size(), 2u);
  EXPECT_EQ(literals[0], "'1995-03-15'");
  EXPECT_EQ(literals[1], "24");
  // Different literal values share one template — the whole point.
  EXPECT_EQ(ParameterizeQueryText("select x from t where p > 24"),
            ParameterizeQueryText("SELECT  x FROM t WHERE p > 25"));
  EXPECT_EQ(ParameterizeQueryText("select x from t where n = 'Smith'"),
            ParameterizeQueryText("select x from t where n = 'Jones'"));
}

TEST(ParameterizeQueryText, PreservesIdentifierDigits) {
  // Digits that continue an identifier are not literals.
  EXPECT_EQ(ParameterizeQueryText("select e1.salary from emp e1"),
            "select e1.salary from emp e1");
  EXPECT_EQ(ParameterizeQueryText("select col2 from t2 where col2 > 7"),
            "select col2 from t2 where col2 > ?");
  // Decimal literals are captured whole.
  std::vector<std::string> literals;
  EXPECT_EQ(ParameterizeQueryText("select x from t where f < 0.5", &literals),
            "select x from t where f < ?");
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0], "0.5");
}

// The LIMIT count is no literal slot: it stays in the template, so a
// different LIMIT is a different entry.
TEST(ParameterizeQueryText, KeepsLimitCount) {
  std::vector<std::string> literals;
  EXPECT_EQ(ParameterizeQueryText(
                "select x from t where p > 3 order by x LIMIT 20", &literals),
            "select x from t where p > ? order by x limit 20");
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0], "3");
  EXPECT_NE(ParameterizeQueryText("select x from t order by x limit 20"),
            ParameterizeQueryText("select x from t order by x limit 5"));
  // Only the keyword counts: a column that ends in "limit" does not.
  EXPECT_EQ(ParameterizeQueryText("select x from t where my_limit > 7"),
            "select x from t where my_limit > ?");
}

// `--` comments are dropped as the tokenizer drops them, so a literal
// inside one is no slot.
TEST(ParameterizeQueryText, DropsLineComments) {
  std::vector<std::string> literals;
  EXPECT_EQ(ParameterizeQueryText("select x -- note 5 'a'\nfrom t where p > 3",
                                  &literals),
            "select x from t where p > ?");
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0], "3");
}

TEST(ParameterizeQueryText, HandlesEscapedQuotes) {
  std::vector<std::string> literals;
  EXPECT_EQ(
      ParameterizeQueryText("select x from t where n = 'It''s'", &literals),
      "select x from t where n = ?");
  ASSERT_EQ(literals.size(), 1u);
  EXPECT_EQ(literals[0], "'It''s'");
  // Literal case is captured verbatim (it is semantic), template is not.
  ParameterizeQueryText("SELECT 'MiXeD' FROM T", &literals);
  EXPECT_EQ(literals.back(), "'MiXeD'");
}

TEST(PlanCacheTest, MissPublishHit) {
  PlanCache cache(8);
  EXPECT_EQ(cache.GetOrBeginPlanning("SELECT x FROM t", 1), nullptr);
  cache.Publish("SELECT x FROM t", 1, FakePlan("p1"));
  // Different surface text, same normalized key.
  auto hit = cache.GetOrBeginPlanning("select  X from T", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan_text, "p1");
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(PlanCacheTest, PeekNeverElectsNorCounts) {
  PlanCache cache(8);
  EXPECT_EQ(cache.Peek("select 1", 1), nullptr);
  EXPECT_EQ(cache.stats().misses, 0);
  ASSERT_EQ(cache.GetOrBeginPlanning("select 1", 1), nullptr);
  // In-flight: peek still refuses rather than blocking.
  EXPECT_EQ(cache.Peek("select 1", 1), nullptr);
  cache.Publish("select 1", 1, FakePlan("p"));
  EXPECT_NE(cache.Peek("select 1", 1), nullptr);
  EXPECT_EQ(cache.Peek("select 1", 2), nullptr);  // wrong epoch
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(PlanCacheTest, StatsEpochBumpInvalidates) {
  PlanCache cache(8);
  ASSERT_EQ(cache.GetOrBeginPlanning("select 1", /*stats_epoch=*/1), nullptr);
  cache.Publish("select 1", 1, FakePlan("old"));
  // The epoch moved: the stale entry is dropped and the caller re-plans.
  EXPECT_EQ(cache.GetOrBeginPlanning("select 1", /*stats_epoch=*/2), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1);
  cache.Publish("select 1", 2, FakePlan("new"));
  auto hit = cache.GetOrBeginPlanning("select 1", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan_text, "new");
}

TEST(PlanCacheTest, LruEvictsOldest) {
  // Distinct table names: distinct literals alone would share a template.
  PlanCache cache(2);
  for (const char* sql : {"select x from t1", "select x from t2",
                          "select x from t3"}) {
    ASSERT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);
    cache.Publish(sql, 1, FakePlan(sql));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.Peek("select x from t1", 1), nullptr);  // evicted
  EXPECT_NE(cache.Peek("select x from t2", 1), nullptr);
  EXPECT_NE(cache.Peek("select x from t3", 1), nullptr);
  // A hit refreshes recency: t2 survives the next insert.
  ASSERT_NE(cache.GetOrBeginPlanning("select x from t2", 1), nullptr);
  ASSERT_EQ(cache.GetOrBeginPlanning("select x from t4", 1), nullptr);
  cache.Publish("select x from t4", 1, FakePlan("p4"));
  EXPECT_NE(cache.Peek("select x from t2", 1), nullptr);
  EXPECT_EQ(cache.Peek("select x from t3", 1), nullptr);
}

// Same template, different literal values: one generic entry serves them
// all (the engine binds each request's literals into it).
TEST(PlanCacheTest, SameTemplateDifferentLiteralsHits) {
  PlanCache cache(8);
  ASSERT_EQ(cache.GetOrBeginPlanning("select x from t where p > 24", 1),
            nullptr);
  cache.Publish("select x from t where p > 24", 1, FakePlan("p24"));
  // Same literal, different surface text: a hit.
  auto hit = cache.GetOrBeginPlanning("SELECT  x FROM t WHERE p > 24", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan_text, "p24");
  // Different literal: the same entry, served.
  hit = cache.GetOrBeginPlanning("select x from t where p > 25", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan_text, "p24");
  EXPECT_NE(cache.Peek("select x from t where p > 99", 1), nullptr);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.literal_evictions, 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LiteralSweepKeepsOneSlot) {
  PlanCache cache(4);
  for (int p = 0; p < 10; ++p) {
    std::string sql =
        "select x from t where p > " + std::to_string(p * 7 + 1);
    auto plan = cache.GetOrBeginPlanning(sql, 1);
    if (p == 0) {
      ASSERT_EQ(plan, nullptr) << sql;
      cache.Publish(sql, 1, FakePlan(sql));
    } else {
      ASSERT_NE(plan, nullptr) << sql;
      EXPECT_EQ(plan->plan_text, "select x from t where p > 1");
    }
    EXPECT_EQ(cache.size(), 1u);
  }
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 9);
  EXPECT_EQ(stats.literal_evictions, 0);
  EXPECT_EQ(stats.evictions, 0);
}

// A different LIMIT count is a different template, hence a second entry.
TEST(PlanCacheTest, LimitCountsAreSeparateEntries) {
  PlanCache cache(8);
  const std::string top20 = "select x from t order by x limit 20";
  const std::string top5 = "select x from t order by x limit 5";
  ASSERT_EQ(cache.GetOrBeginPlanning(top20, 1), nullptr);
  cache.Publish(top20, 1, FakePlan("top20"));
  ASSERT_EQ(cache.GetOrBeginPlanning(top5, 1), nullptr);
  cache.Publish(top5, 1, FakePlan("top5"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Peek(top20, 1)->plan_text, "top20");
  EXPECT_EQ(cache.Peek(top5, 1)->plan_text, "top5");
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  ASSERT_EQ(cache.GetOrBeginPlanning("select 1", 1), nullptr);
  cache.Publish("select 1", 1, FakePlan("p"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.GetOrBeginPlanning("select 1", 1), nullptr);
  cache.Abandon("select 1", 1);
}

TEST(PlanCacheTest, ClearDropsReadyEntries) {
  PlanCache cache(8);
  ASSERT_EQ(cache.GetOrBeginPlanning("select 1", 1), nullptr);
  cache.Publish("select 1", 1, FakePlan("p"));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Peek("select 1", 1), nullptr);
}

// The stampede guarantee: N threads racing one cold key produce exactly
// one planner; everyone else blocks and comes back with the published
// plan, not a duplicate planning role.
TEST(PlanCacheTest, StampedeElectsOnePlanner) {
  PlanCache cache(8);
  constexpr int kThreads = 8;
  std::atomic<int> planners{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto plan = cache.GetOrBeginPlanning("select x from t", 7);
      if (plan == nullptr) {
        planners.fetch_add(1);
        cache.Publish("select x from t", 7, FakePlan("winner"));
      } else {
        hits.fetch_add(1);
        EXPECT_EQ(plan->plan_text, "winner");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(planners.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

// An abandoning planner promotes exactly one waiter to the planner role;
// the others keep waiting and are served by the promoted planner.
TEST(PlanCacheTest, AbandonPromotesOneWaiter) {
  PlanCache cache(8);
  ASSERT_EQ(cache.GetOrBeginPlanning("select 1", 1), nullptr);
  std::atomic<int> promoted{0};
  std::atomic<int> served{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto plan = cache.GetOrBeginPlanning("select 1", 1);
      if (plan == nullptr) {
        promoted.fetch_add(1);
        cache.Publish("select 1", 1, FakePlan("retry"));
      } else {
        served.fetch_add(1);
        EXPECT_EQ(plan->plan_text, "retry");
      }
    });
  }
  // Give the waiters a moment to block, then fail the original planner.
  std::this_thread::yield();
  cache.Abandon("select 1", 1);
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(promoted.load(), 1);
  EXPECT_EQ(served.load(), 3);
}

// Many threads, several keys, repeated lookups: every query is planned at
// most once per (key, epoch), every thread always gets a plan, and the
// counters balance.
TEST(PlanCacheTest, ManyThreadsOnePlanningPerKey) {
  PlanCache cache(16);
  const std::vector<std::string> keys = {
      "select x from t1", "select x from t2", "select x from t3",
      "select x from t4"};
  std::atomic<int> plannings{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const std::string& sql = keys[(t + round) % keys.size()];
        auto plan = cache.GetOrBeginPlanning(sql, 3);
        if (plan == nullptr) {
          plannings.fetch_add(1);
          cache.Publish(sql, 3, FakePlan(sql));
        } else {
          EXPECT_EQ(plan->plan_text, sql);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(plannings.load(), static_cast<int>(keys.size()));
  EXPECT_EQ(cache.stats().misses, static_cast<int64_t>(keys.size()));
}

// Quarantine: a poisoned entry is evicted, lookups stop electing planners
// (everyone replans fresh, nothing is re-cached), publishes are refused —
// all scoped to the stats epoch the failure was observed under.
TEST(PlanCacheTest, QuarantineBlocksTemplateForEpoch) {
  PlanCache cache(8);
  const std::string sql = "select x from t where p > 24";
  ASSERT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);
  cache.Publish(sql, 1, FakePlan("bad"));
  ASSERT_NE(cache.Peek(sql, 1), nullptr);

  cache.Quarantine(sql, 1);
  EXPECT_TRUE(cache.IsQuarantined(sql, 1));
  EXPECT_EQ(cache.Peek(sql, 1), nullptr);  // evicted on the spot
  EXPECT_EQ(cache.size(), 0u);
  // Quarantine is per-template: a different literal is equally blocked.
  EXPECT_TRUE(cache.IsQuarantined("select x from t where p > 99", 1));

  // Lookups return planner-role without a marker: repeated calls must not
  // block on each other, and a Publish must be refused.
  EXPECT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);
  EXPECT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);
  cache.Publish(sql, 1, FakePlan("still bad"));
  EXPECT_EQ(cache.Peek(sql, 1), nullptr);
  EXPECT_GE(cache.stats().quarantine_rejections, 3);
  EXPECT_EQ(cache.stats().quarantined, 1);

  // A new stats epoch means a fresh plan would be a different plan: the
  // quarantine lifts and normal caching resumes.
  EXPECT_FALSE(cache.IsQuarantined(sql, 2));
  ASSERT_EQ(cache.GetOrBeginPlanning(sql, 2), nullptr);
  cache.Publish(sql, 2, FakePlan("rebuilt"));
  auto hit = cache.Peek(sql, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan_text, "rebuilt");
}

// A planner elected just before the quarantine landed must not strand its
// waiters: its refused Publish still resolves the planning marker.
TEST(PlanCacheTest, QuarantineDoesNotStrandInFlightPlanner) {
  PlanCache cache(8);
  const std::string sql = "select x from t where p > 24";
  ASSERT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);  // marker in place
  cache.Quarantine(sql, 1);
  cache.Publish(sql, 1, FakePlan("late"));  // refused, marker resolved
  EXPECT_EQ(cache.Peek(sql, 1), nullptr);
  // No marker left behind: this lookup must return immediately.
  EXPECT_EQ(cache.GetOrBeginPlanning(sql, 1), nullptr);
}

// End-to-end: a plan published from a real planning run re-executes via
// RunPrepared, given the request text, to exactly the rows the planning run
// produced.
TEST(PlanCacheTest, PublishedPlanReexecutesIdentically) {
  Database db;
  BuildToyDatabase(&db, 11, 120);
  QueryEngine engine(&db);
  const std::string sql =
      "select e.eno, d.dname from emp e, dept d where e.dno = d.dno "
      "order by e.eno";
  PlanCache cache(4);
  uint64_t epoch = db.stats_epoch();
  ASSERT_EQ(cache.GetOrBeginPlanning(sql, epoch), nullptr);
  Result<QueryResult> first = engine.Run(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  cache.Publish(sql, epoch, PreparedPlan::FromResult(first.value()));

  auto cached = cache.GetOrBeginPlanning(sql, epoch);
  ASSERT_NE(cached, nullptr);
  Result<QueryResult> second = engine.RunPrepared(*cached, sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.value().planned_from_cache);
  EXPECT_FALSE(first.value().planned_from_cache);
  EXPECT_EQ(Canonicalize(second.value().rows),
            Canonicalize(first.value().rows));
  EXPECT_EQ(second.value().column_names, first.value().column_names);
  EXPECT_EQ(second.value().plan_text, first.value().plan_text);
  EXPECT_EQ(second.value().qgm_text, first.value().qgm_text);
  EXPECT_TRUE(second.value().custom_plan_reason.empty());
}

}  // namespace
}  // namespace ordopt
