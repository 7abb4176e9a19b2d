// QueryService tests: the robustness acceptance criteria of the
// concurrent-service milestone. 64 sessions of mixed TPC-D queries must
// be row-identical to serial execution; overload must shed fast with
// kResourceExhausted while every admitted query completes; cancellation
// and deadlines must work on queued and running queries; the shared plan
// cache must skip planning on repeats and invalidate on a stats-epoch
// bump; Shutdown must drain cleanly. Run under ASan and TSan via
// scripts/check.sh --service.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query_test_util.h"
#include "service/query_service.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

using Canon = std::vector<std::vector<std::string>>;

// A query whose work is large enough to keep a worker busy for a while on
// any machine (~1.7M-row cartesian join) but still bounded; used as a
// blocker to make queue/cancel states deterministic.
constexpr const char* kSlowQuery =
    "select count(*) from emp e1, emp e2, emp e3 "
    "where e1.salary >= 30 and e2.salary >= 30 and e3.salary >= 30";

// A query only a cancel or a deadline ends in test time: 120^4 joined rows,
// about a hundred times kSlowQuery's work. Tests that need a query still
// running when their cancel, close or deadline lands use this one, so a
// faster engine cannot finish it first.
constexpr const char* kUnboundedQuery =
    "select count(*) from emp e1, emp e2, emp e3, emp e4";

// A sort that buffers all 120^3 joined rows, about two seconds of work: a
// cancel or deadline always lands while it is still buffering.
constexpr const char* kLongSortQuery =
    "select e1.eno, e2.eno, e3.eno from emp e1, emp e2, emp e3 "
    "order by e1.salary, e2.salary, e3.eno";

// Drains the service and asserts the shared budget returned every byte —
// the leak invariant every scenario must uphold no matter how its queries
// ended (success, shed, cancel, timeout, fault).
void ExpectCleanDrain(QueryService* service) {
  service->Shutdown();
  EXPECT_EQ(service->budget().used_bytes(), 0);
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildToyDatabase(&db_, 17, 120); }

  Database db_;
};

TEST_F(ServiceTest, ExecuteMatchesDirectEngine) {
  const std::string sql =
      "select e.eno, d.dname from emp e, dept d where e.dno = d.dno "
      "order by e.eno";
  QueryEngine engine(&db_);
  Result<QueryResult> direct = engine.Run(sql);
  ASSERT_TRUE(direct.ok());

  ServiceConfig config;
  config.workers = 2;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  Result<QueryResult> via_service = service.Execute(session, sql);
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  EXPECT_EQ(Canonicalize(via_service.value().rows),
            Canonicalize(direct.value().rows));
  EXPECT_EQ(via_service.value().column_names, direct.value().column_names);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, SubmitToUnknownSessionIsNotFound) {
  QueryService service(&db_);
  Result<TicketRef> ticket = service.Submit(999, "select 1 from dept");
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, QueryErrorsComeBackAsStatuses) {
  QueryService service(&db_);
  int64_t session = service.OpenSession();
  Result<QueryResult> bad = service.Execute(session, "select * from nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(service.stats().failed, 1);
  // Text the tokenizer rejects keys the plan cache as itself and fails in
  // the parser, twice alike: the first failure leaves no planning marker
  // for the second to wait on.
  for (int i = 0; i < 2; ++i) {
    Result<QueryResult> rejected =
        service.Execute(session, "select 'open from dept");
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kParseError)
        << rejected.status().ToString();
  }
  EXPECT_EQ(service.stats().failed, 3);
  EXPECT_EQ(service.plan_cache_stats().stampede_waits, 0);
  EXPECT_EQ(service.metrics().Snap().GaugeValue("plan_cache.entries"), 0);
  // A literal spelled `?` is rejected text too, and must not share the key
  // of the healthy template it mimics: that template stays cached and
  // unquarantined.
  ASSERT_TRUE(service.Execute(session, "select dname from dept where dno < 5")
                  .ok());
  Result<QueryResult> mimic =
      service.Execute(session, "select dname from dept where dno < ?");
  ASSERT_FALSE(mimic.ok());
  EXPECT_EQ(mimic.status().code(), StatusCode::kParseError)
      << mimic.status().ToString();
  Result<QueryResult> cached =
      service.Execute(session, "select dname from dept where dno < 7");
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached.value().planned_from_cache);
  EXPECT_EQ(service.plan_cache_stats().quarantined, 0);
  // The service survives a failed query; the next one is fine.
  Result<QueryResult> good =
      service.Execute(session, "select dname from dept order by dname");
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  ExpectCleanDrain(&service);
}

// ---- Overload: shed fast, never block, admitted queries complete. ----

TEST_F(ServiceTest, OverloadShedsQueueFullAndAdmittedComplete) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_depth = 2;
  config.plan_cache_capacity = 0;  // every run plans: keeps the worker slow
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();

  // Wedge the single worker on a long query, then overfill the queue.
  Result<TicketRef> blocker = service.Submit(session, kSlowQuery);
  ASSERT_TRUE(blocker.ok());
  std::vector<TicketRef> admitted;
  int shed = 0;
  for (int i = 0; i < 10; ++i) {
    Result<TicketRef> t =
        service.Submit(session, "select dname from dept order by dname");
    if (t.ok()) {
      admitted.push_back(t.value());
    } else {
      EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted)
          << t.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_LE(admitted.size(), config.queue_depth);

  // Every admitted query runs to a clean completion.
  for (const TicketRef& t : admitted) {
    const Result<QueryResult>& r = t->Wait();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_TRUE(blocker.value()->Wait().ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_queue_full, shed);
  EXPECT_EQ(stats.completed,
            static_cast<int64_t>(admitted.size()) + 1);
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, SessionInflightCapSheds) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_depth = 16;
  config.max_inflight_per_session = 1;
  QueryService service(&db_, config);
  int64_t blocker_session = service.OpenSession();
  int64_t capped = service.OpenSession();

  Result<TicketRef> blocker = service.Submit(blocker_session, kSlowQuery);
  ASSERT_TRUE(blocker.ok());
  // First query occupies the capped session's only slot (queued counts)...
  Result<TicketRef> first =
      service.Submit(capped, "select dname from dept order by dname");
  ASSERT_TRUE(first.ok());
  // ...so the second sheds even though the queue has room.
  Result<TicketRef> second = service.Submit(capped, "select 1 from dept");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().shed_session_cap, 1);

  EXPECT_TRUE(first.value()->Wait().ok());
  EXPECT_TRUE(blocker.value()->Wait().ok());
  // The slot came back: the session can submit again.
  EXPECT_TRUE(service.Execute(capped, "select 1 from dept").ok());
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, GlobalBudgetTripsAsResourceExhausted) {
  ServiceConfig config;
  config.workers = 1;
  config.global_budget_bytes = 512;  // far below one sort's buffering
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  // The ORDER BY must buffer every emp row — charges blow the budget.
  Result<QueryResult> result =
      service.Execute(session, "select eno, salary from emp order by salary");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("global memory budget"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_GT(service.budget().rejections(), 0);
  // The failed query released its reservations: the pool drains back to
  // zero and small queries still fit.
  EXPECT_EQ(service.budget().used_bytes(), 0);
  Result<QueryResult> small =
      service.Execute(session, "select dno from emp where eno = 3");
  EXPECT_TRUE(small.ok()) << small.status().ToString();
  ExpectCleanDrain(&service);
}

// ---- Cancellation and timeouts. ----

TEST_F(ServiceTest, CancelQueuedQuerySkipsExecution) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  Result<TicketRef> blocker = service.Submit(session, kSlowQuery);
  ASSERT_TRUE(blocker.ok());
  Result<TicketRef> queued =
      service.Submit(session, "select dname from dept order by dname");
  ASSERT_TRUE(queued.ok());
  queued.value()->Cancel();
  const Result<QueryResult>& r = queued.value()->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // Cancelled while queued: it never reached the engine.
  EXPECT_EQ(queued.value()->exec_seconds(), 0.0);
  EXPECT_TRUE(blocker.value()->Wait().ok());
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, CancelRunningQueryTripsCooperatively) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  Result<TicketRef> running = service.Submit(session, kUnboundedQuery);
  ASSERT_TRUE(running.ok());
  // Let the worker pick it up, then cancel mid-flight. If the cancel
  // happens to land while still queued, the outcome is the same code.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  running.value()->Cancel();
  const Result<QueryResult>& r = running.value()->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, SessionDeadlineTimesOut) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(&db_, config);
  QueryLimits limits;
  limits.deadline_seconds = 0.05;
  int64_t session = service.OpenSession(limits);
  Result<QueryResult> result = service.Execute(session, kUnboundedQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, CloseSessionCancelsInflightAndRejectsNew) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  Result<TicketRef> running = service.Submit(session, kUnboundedQuery);
  ASSERT_TRUE(running.ok());
  Result<TicketRef> queued = service.Submit(session, kUnboundedQuery);
  ASSERT_TRUE(queued.ok());
  service.CloseSession(session);
  EXPECT_EQ(service.Submit(session, "select 1 from dept").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(running.value()->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued.value()->Wait().status().code(), StatusCode::kCancelled);
  ExpectCleanDrain(&service);
}

// Submit racing CloseSession from other threads: no crash, no hang, every
// admitted ticket resolves (ok or cancelled), nothing leaks.
TEST_F(ServiceTest, SubmitRacingCloseSessionResolvesEveryTicket) {
  ServiceConfig config;
  config.workers = 2;
  config.queue_depth = 64;
  config.global_budget_bytes = 64 << 20;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();

  std::mutex tickets_mu;
  std::vector<TicketRef> tickets;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        Result<TicketRef> r =
            service.Submit(session, "select dname from dept order by dname");
        if (r.ok()) {
          std::lock_guard<std::mutex> lock(tickets_mu);
          tickets.push_back(r.value());
        } else {
          // After the close lands only kNotFound; shedding is also legal
          // while the queue is saturated.
          EXPECT_TRUE(r.status().code() == StatusCode::kNotFound ||
                      r.status().code() == StatusCode::kResourceExhausted)
              << r.status().ToString();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  service.CloseSession(session);
  for (std::thread& t : submitters) t.join();

  for (const TicketRef& t : tickets) {
    const Result<QueryResult>& r = t->Wait();
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kCancelled)
        << r.status().ToString();
  }
  ExpectCleanDrain(&service);
}

// A cancel that trips a buffering sort mid-flight must hand back every
// byte the query charged against the shared budget.
TEST_F(ServiceTest, CancelMidSortReleasesBudget) {
  ServiceConfig config;
  config.workers = 1;
  config.global_budget_bytes = 256 << 20;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  Result<TicketRef> t = service.Submit(session, kLongSortQuery);
  ASSERT_TRUE(t.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.value()->Cancel();
  const Result<QueryResult>& r = t.value()->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ExpectCleanDrain(&service);
}

// Same invariant when the deadline, not the caller, kills the query.
TEST_F(ServiceTest, TimeoutReleasesBudget) {
  ServiceConfig config;
  config.workers = 1;
  config.global_budget_bytes = 256 << 20;
  QueryService service(&db_, config);
  QueryLimits limits;
  limits.deadline_seconds = 0.02;
  int64_t session = service.OpenSession(limits);
  Result<QueryResult> r = service.Execute(session, kLongSortQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  ExpectCleanDrain(&service);
}

// ---- Plan cache behavior through the service. ----

TEST_F(ServiceTest, RepeatedQueryHitsPlanCacheAndSkipsPlanning) {
  ServiceConfig config;
  config.workers = 2;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  const std::string sql =
      "select e.eno, d.dname from emp e, dept d where e.dno = d.dno "
      "order by e.eno";

  Result<QueryResult> first = service.Execute(session, sql);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().planned_from_cache);
  Canon expected = Canonicalize(first.value().rows);

  constexpr int kRepeats = 19;
  for (int i = 0; i < kRepeats; ++i) {
    // Vary the surface text: normalization must still hit.
    Result<QueryResult> repeat = service.Execute(
        session, i % 2 == 0 ? sql : "SELECT e.eno, d.dname FROM emp e, "
                                    "dept d WHERE e.dno = d.dno "
                                    "ORDER BY  e.eno");
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    EXPECT_TRUE(repeat.value().planned_from_cache) << "repeat " << i;
    EXPECT_EQ(repeat.value().plans_generated, 0) << "repeat " << i;
    EXPECT_EQ(Canonicalize(repeat.value().rows), expected);
  }
  PlanCacheStats cache_stats = service.plan_cache_stats();
  EXPECT_EQ(cache_stats.hits, kRepeats);
  EXPECT_EQ(cache_stats.misses, 1);
  // The acceptance bar: >= 90% hit rate on the repeated query.
  EXPECT_GE(service.plan_cache_hit_rate(), 0.9);
  ExpectCleanDrain(&service);
}

TEST_F(ServiceTest, StatsEpochBumpInvalidatesCachedPlans) {
  ServiceConfig config;
  config.workers = 1;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  const std::string sql = "select dname from dept order by dname";

  ASSERT_TRUE(service.Execute(session, sql).ok());
  Result<QueryResult> hit = service.Execute(session, sql);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().planned_from_cache);

  // A statistics refresh bumps the database epoch: the cached plan is
  // stale and the next run re-plans, then re-caches under the new epoch.
  db_.BumpStatsEpoch();
  Result<QueryResult> replanned = service.Execute(session, sql);
  ASSERT_TRUE(replanned.ok());
  EXPECT_FALSE(replanned.value().planned_from_cache);
  EXPECT_GE(service.plan_cache_stats().invalidations, 1);
  Result<QueryResult> recached = service.Execute(session, sql);
  ASSERT_TRUE(recached.ok());
  EXPECT_TRUE(recached.value().planned_from_cache);
  ExpectCleanDrain(&service);
}

// ---- Shutdown. ----

TEST_F(ServiceTest, ShutdownDrainsAdmittedWorkAndRejectsNew) {
  ServiceConfig config;
  config.workers = 2;
  QueryService service(&db_, config);
  int64_t session = service.OpenSession();
  std::vector<TicketRef> tickets;
  for (int i = 0; i < 6; ++i) {
    Result<TicketRef> t =
        service.Submit(session, "select dname from dept order by dname");
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  service.Shutdown();
  for (const TicketRef& t : tickets) {
    EXPECT_TRUE(t->done());
    EXPECT_TRUE(t->Wait().ok());
  }
  EXPECT_EQ(service.Submit(session, "select 1 from dept").status().code(),
            StatusCode::kCancelled);
  // Idempotent (the destructor will call it again).
  service.Shutdown();
  EXPECT_EQ(service.budget().used_bytes(), 0);
}

// ---- The acceptance test: 64 concurrent sessions of mixed TPC-D ----
// queries, row-identical to serial execution, zero races (under TSan),
// zero crashes.

TEST(ServiceTpcdTest, SixtyFourSessionsMatchSerialExecution) {
  Database db;
  TpcdConfig tpcd;
  tpcd.scale_factor = 0.002;  // tiny but non-degenerate tables
  ASSERT_TRUE(LoadTpcd(&db, tpcd).ok());

  const std::vector<std::string> workload = {
      tpcd_queries::kQuery3,
      tpcd_queries::kPricingSummary,
      tpcd_queries::kDistinctShipdates,
      tpcd_queries::kLateOrders,
      tpcd_queries::kRegionRevenue,
  };

  // Serial reference, one engine, one thread.
  QueryEngine reference(&db);
  std::vector<Canon> expected;
  std::vector<std::vector<std::string>> expected_names;
  for (const std::string& sql : workload) {
    Result<QueryResult> serial = reference.Run(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    expected.push_back(Canonicalize(serial.value().rows));
    expected_names.push_back(serial.value().column_names);
  }

  ServiceConfig config;
  config.workers = 4;
  config.queue_depth = 256;
  config.plan_cache_capacity = 32;
  QueryService service(&db, config);

  constexpr int kSessions = 64;
  constexpr int kQueriesPerSession = 3;
  std::vector<int64_t> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) sessions.push_back(service.OpenSession());

  // Submit from many client threads at once; each session rotates through
  // the workload starting at a different offset.
  std::atomic<int> wrong_rows{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      for (int q = 0; q < kQueriesPerSession; ++q) {
        size_t w = (s + q) % workload.size();
        Result<QueryResult> result =
            service.Execute(sessions[s], workload[w]);
        if (!result.ok()) {
          errors.fetch_add(1);
          ADD_FAILURE() << "session " << s << " query " << w << ": "
                        << result.status().ToString();
          continue;
        }
        if (Canonicalize(result.value().rows) != expected[w] ||
            result.value().column_names != expected_names[w]) {
          wrong_rows.fetch_add(1);
          ADD_FAILURE() << "session " << s << " query " << w
                        << ": rows differ from serial execution";
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong_rows.load(), 0);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, kSessions * kQueriesPerSession);
  EXPECT_EQ(stats.completed, kSessions * kQueriesPerSession);
  EXPECT_EQ(stats.failed, 0);
  // 5 distinct queries, 192 executions: nearly everything hits the cache.
  EXPECT_GE(service.plan_cache_hit_rate(), 0.9);
  ExpectCleanDrain(&service);
}

}  // namespace
}  // namespace ordopt
