// Generic-plan tests. The differential oracle: a plan cached at one set of
// literals, executed through QueryEngine::RunPrepared at another, returns
// exactly the rows a fresh plan of that text returns — over every golden
// query and the five TPC-D templates, serial and with 4 workers, at batch
// 1024 and 3, with runtime order verification on. Beside it, the parser's
// slot count agrees with the `?`s of the plan-cache key on every text, and
// the serve rule: each request a cached plan cannot provably serve is
// planned fresh, left unpublished, traced and counted.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "exec/engine.h"
#include "golden_queries.h"
#include "parser/parser.h"
#include "parser/token.h"
#include "qgm/binder.h"
#include "query_test_util.h"
#include "service/plan_cache.h"
#include "service/query_service.h"

namespace ordopt {
namespace {

// ---- literal sets ---------------------------------------------------------

/// The literals of `sql` that its key spells `?`, in slot order, as SQL
/// text (string literals quoted again).
std::vector<std::string> SlotLiterals(const std::string& sql) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  ORDOPT_CHECK(tokens.ok());
  std::istringstream key(ParameterizeQueryText(sql));
  std::vector<std::string> out;
  std::string word;
  for (size_t i = 0; key >> word; ++i) {
    if (word != "?") continue;
    const Token& t = tokens.value()[i];
    out.push_back(t.kind == TokenKind::kString ? "'" + t.text + "'" : t.text);
  }
  return out;
}

/// `sql` with its i-th slot literal replaced by `literals[i]`, rebuilt
/// from its key.
std::string WithLiterals(const std::string& sql,
                         const std::vector<std::string>& literals) {
  const std::string tmpl = ParameterizeQueryText(sql);
  std::string out;
  size_t next = 0;
  for (char c : tmpl) {
    if (c == '?') {
      ORDOPT_CHECK(next < literals.size());
      out += literals[next++];
    } else {
      out += c;
    }
  }
  ORDOPT_CHECK(next == literals.size());
  return out;
}

// Replacement strings, each another value present in the literal's column.
const std::map<std::string, std::vector<std::string>>& StringSwaps() {
  static const auto* swaps = new std::map<std::string, std::vector<std::string>>{
      {"'building'", {"'automobile'", "'machinery'"}},
      {"'asia'", {"'europe'", "'america'"}},
  };
  return *swaps;
}

/// A golden text's literals shifted one step in `direction` (+1 or -1):
/// numbers by 1, dates by 7 days, strings swapped for another value of
/// their column.
std::vector<std::string> ShiftedLiterals(const std::vector<std::string>& lits,
                                         int direction) {
  std::vector<std::string> out;
  for (const std::string& lit : lits) {
    int64_t days = 0;
    if (lit.front() == '\'' &&
        ParseDate(lit.substr(1, lit.size() - 2), &days)) {
      out.push_back("'" + FormatDate(days + 7 * direction) + "'");
    } else if (lit.front() == '\'') {
      auto it = StringSwaps().find(lit);
      ORDOPT_CHECK(it != StringSwaps().end());
      out.push_back(it->second[direction > 0 ? 0 : 1]);
    } else if (lit.find('.') != std::string::npos) {
      out.push_back(StrFormat("%g", std::stod(lit) + direction));
    } else {
      out.push_back(std::to_string(std::stoll(lit) + direction));
    }
  }
  return out;
}

/// Every literal set of a golden text: the text itself, then one shift
/// each way.
std::vector<std::string> GoldenLiteralSets(const std::string& sql) {
  std::vector<std::string> lits = SlotLiterals(sql);
  return {sql, WithLiterals(sql, ShiftedLiterals(lits, +1)),
          WithLiterals(sql, ShiftedLiterals(lits, -1))};
}

/// The suite benchmark's four literal sets per TPC-D template (set 0 is the
/// canonical text): dates a week apart, another segment or region.
struct TemplateSets {
  const char* sql;
  std::vector<std::vector<std::string>> sets;  ///< literal text by slot
};

std::vector<std::string> TpcdTemplateTexts(const TemplateSets& t) {
  std::vector<std::string> texts;
  for (const std::vector<std::string>& set : t.sets) {
    texts.push_back(WithLiterals(t.sql, set));
  }
  return texts;
}

std::vector<TemplateSets> TpcdTemplates() {
  using namespace tpcd_queries;
  return {
      {kQuery3,
       {{"1", "'building'", "'1995-03-15'", "'1995-03-15'"},
        {"1", "'automobile'", "'1995-03-08'", "'1995-03-08'"},
        {"1", "'machinery'", "'1995-03-22'", "'1995-03-22'"},
        {"1", "'household'", "'1995-03-01'", "'1995-03-01'"}}},
      {kPricingSummary,
       {{"1", "'1998-08-01'"},
        {"1", "'1998-07-25'"},
        {"1", "'1998-07-18'"},
        {"1", "'1998-07-11'"}}},
      {kDistinctShipdates,
       {{"'1997-01-01'"}, {"'1997-01-08'"}, {"'1997-01-15'"}, {"'1997-01-22'"}}},
      {kLateOrders,
       {{"'1994-01-01'", "'1995-01-01'", "'1994-06-01'"},
        {"'1994-01-08'", "'1995-01-08'", "'1994-06-08'"},
        {"'1994-01-15'", "'1995-01-15'", "'1994-06-15'"},
        {"'1994-01-22'", "'1995-01-22'", "'1994-06-22'"}}},
      {kRegionRevenue,
       {{"1", "'asia'", "'1994-01-01'"},
        {"1", "'europe'", "'1994-01-01'"},
        {"1", "'america'", "'1994-01-01'"},
        {"1", "'africa'", "'1994-01-01'"}}},
  };
}

// ---- exact row comparison -------------------------------------------------

bool ValueLess(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type();
  return a.Compare(b) < 0;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      ValueLess);
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

/// Output positions of `sql`'s ORDER BY columns; empty when it has none or
/// one of them is not an output.
std::vector<size_t> OrderByPositions(const std::string& sql,
                                     const Database& db) {
  std::vector<size_t> positions;
  auto stmt = ParseSelect(sql);
  ORDOPT_CHECK(stmt.ok());
  auto query = BindQuery(*stmt.value(), db);
  ORDOPT_CHECK(query.ok());
  const QgmBox* root = query.value()->root;
  for (const OrderElement& e : root->output_order_requirement) {
    const int pos = root->FindOutput(e.col);
    if (pos < 0) return {};
    positions.push_back(static_cast<size_t>(pos));
  }
  return positions;
}

/// Exact equality, no tolerance: the same multiset of rows, the same
/// sequence of ORDER BY keys, and — when both runs used one plan — the same
/// row sequence.
void ExpectSameRows(const QueryResult& generic, const QueryResult& fresh,
                    const std::vector<size_t>& order_by,
                    const std::string& context) {
  ASSERT_EQ(generic.rows.size(), fresh.rows.size()) << context;
  if (generic.plan_text == fresh.plan_text) {
    for (size_t i = 0; i < fresh.rows.size(); ++i) {
      ASSERT_TRUE(SameRow(generic.rows[i], fresh.rows[i]))
          << context << " row " << i;
    }
    return;
  }
  for (size_t i = 0; i < fresh.rows.size(); ++i) {
    for (size_t pos : order_by) {
      ASSERT_EQ(generic.rows[i][pos].Compare(fresh.rows[i][pos]), 0)
          << context << " ORDER BY key of row " << i;
    }
  }
  std::vector<Row> a = generic.rows;
  std::vector<Row> b = fresh.rows;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(SameRow(a[i], b[i])) << context << " sorted row " << i;
  }
}

// ---- the differential oracle ----------------------------------------------

constexpr int kWorkerCounts[] = {1, 4};
constexpr int64_t kBatchSizes[] = {1024, 3};
constexpr size_t kProfiles = std::size(kWorkerCounts) * std::size(kBatchSizes);

/// Plans texts[0], then executes the cached plan at every text — serial
/// and with 4 workers, at batch 1024 and 3 — and checks each run against
/// a fresh plan of the same text at the same worker count (batch size does
/// not change a plan or its rows). Returns how many runs the cached plan
/// served.
int CheckTemplate(Database* db, const std::string& name,
                  const std::vector<std::string>& texts,
                  OptimizerConfig config) {
  int served = 0;
  config.verify_orders = true;
  for (int workers : kWorkerCounts) {
    config.parallel_workers = workers;
    config.batch_rows = kBatchSizes[0];
    QueryEngine planner(db, config);
    std::vector<QueryResult> fresh;
    for (const std::string& sql : texts) {
      Result<QueryResult> r = planner.Run(sql);
      EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
      if (!r.ok()) return served;
      fresh.push_back(std::move(r).value());
    }
    // The plan of texts[0] is the cached one.
    const PreparedPlan prepared = PreparedPlan::FromResult(fresh[0]);
    for (int64_t batch : kBatchSizes) {
      config.batch_rows = batch;
      QueryEngine engine(db, config);
      for (size_t i = 0; i < texts.size(); ++i) {
        const std::string context =
            StrFormat("%s [workers=%d batch=%lld] ", name.c_str(), workers,
                      static_cast<long long>(batch)) +
            texts[i];
        Result<QueryResult> generic = engine.RunPrepared(prepared, texts[i]);
        EXPECT_TRUE(generic.ok()) << context << generic.status().ToString();
        if (!generic.ok()) continue;
        if (generic.value().planned_from_cache) ++served;
        EXPECT_EQ(generic.value().column_names, fresh[i].column_names)
            << context;
        ExpectSameRows(generic.value(), fresh[i],
                       OrderByPositions(texts[i], *db), context);
      }
    }
  }
  return served;
}

TEST(GenericPlanOracle, GoldenQueriesAtShiftedLiterals) {
  int runs = 0;
  int served = 0;
  {
    Database db;
    BuildExampleDb(&db);
    for (const GoldenCase& c : ExampleCases()) {
      std::vector<std::string> texts = GoldenLiteralSets(c.sql);
      served += CheckTemplate(&db, c.name, texts, c.config);
      runs += static_cast<int>(texts.size() * kProfiles);
    }
  }
  {
    Database db;
    TpcdConfig tpcd;
    tpcd.scale_factor = 0.001;
    ASSERT_TRUE(LoadTpcd(&db, tpcd).ok());
    for (const GoldenCase& c : TpcdCases()) {
      std::vector<std::string> texts = GoldenLiteralSets(c.sql);
      served += CheckTemplate(&db, c.name, texts, c.config);
      runs += static_cast<int>(texts.size() * kProfiles);
    }
  }
  // The oracle must exercise generic execution, not only custom plans.
  EXPECT_GT(served, runs * 9 / 10) << served << " of " << runs;
}

TEST(GenericPlanOracle, TpcdTemplatesAtBenchmarkLiteralSets) {
  Database db;
  TpcdConfig tpcd;
  tpcd.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, tpcd).ok());
  int runs = 0;
  int served = 0;
  for (const TemplateSets& t : TpcdTemplates()) {
    // Set 0 is the canonical text.
    ASSERT_EQ(SlotLiterals(t.sql), t.sets[0]);
    std::vector<std::string> texts = TpcdTemplateTexts(t);
    served += CheckTemplate(&db, std::string(t.sql).substr(0, 40),
                            texts, OptimizerConfig());
    runs += static_cast<int>(texts.size() * kProfiles);
  }
  // Every benchmark literal set is served by the generic plan.
  EXPECT_EQ(served, runs);
}

// The parser numbers exactly the literals the key spells `?`, on every
// text the oracle runs.
TEST(GenericPlanOracle, ParserSlotsMatchTemplateLiterals) {
  std::vector<std::string> texts;
  for (const std::vector<GoldenCase>& cases : {ExampleCases(), TpcdCases()}) {
    for (const GoldenCase& c : cases) {
      for (const std::string& sql : GoldenLiteralSets(c.sql)) {
        texts.push_back(sql);
      }
    }
  }
  for (const TemplateSets& t : TpcdTemplates()) {
    for (const std::string& sql : TpcdTemplateTexts(t)) texts.push_back(sql);
  }
  for (const std::string& sql : texts) {
    const std::string key = ParameterizeQueryText(sql);
    auto stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    EXPECT_EQ(stmt.value()->slot_values.size(),
              static_cast<size_t>(std::count(key.begin(), key.end(), '?')))
        << sql;
  }
}

// ---- the serve rule -------------------------------------------------------

class ServeRuleTest : public ::testing::Test {
 protected:
  void SetUp() override { BuildToyDatabase(&db_); }

  ServiceConfig Config() const {
    ServiceConfig config;
    config.workers = 1;
    config.plan_cache_capacity = 8;
    config.engine_config.trace_level = TraceLevel::kOptimizer;
    return config;
  }

  // Plans `planned` into the cache, then runs `request`: it must be planned
  // fresh for a reason mentioning `why`, traced, counted, match a fresh
  // plan's rows, and leave the cached entry as it was.
  void ExpectCustomPlan(const std::string& planned, const std::string& request,
                        const std::string& why) {
    ASSERT_EQ(ParameterizeQueryText(planned), ParameterizeQueryText(request));
    QueryService service(&db_, Config());
    const int64_t session = service.OpenSession();
    Result<QueryResult> first = service.Execute(session, planned);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_FALSE(first.value().planned_from_cache);

    Result<QueryResult> custom = service.Execute(session, request);
    ASSERT_TRUE(custom.ok()) << custom.status().ToString();
    const QueryResult& r = custom.value();
    EXPECT_FALSE(r.planned_from_cache);
    EXPECT_NE(r.custom_plan_reason.find(why), std::string::npos)
        << r.custom_plan_reason;
    ASSERT_NE(r.trace, nullptr);
    const TraceEvent* event = r.trace->Find("plan_cache.custom_plan");
    ASSERT_NE(event, nullptr);
    EXPECT_EQ(event->phase(), "optimizer");
    EXPECT_EQ(event->Get("reason"), r.custom_plan_reason);
    EXPECT_GT(r.plans_generated, 0);

    QueryEngine engine(&db_);
    Result<QueryResult> fresh = engine.Run(request);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(r.rows, fresh.value().rows);
    EXPECT_EQ(r.plan_text, fresh.value().plan_text);

    // Unpublished: the entry still serves the planning literals as is.
    Result<QueryResult> again = service.Execute(session, planned);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again.value().planned_from_cache);
    EXPECT_TRUE(again.value().custom_plan_reason.empty());
    EXPECT_EQ(again.value().rows, first.value().rows);

    PlanCacheStats stats = service.plan_cache_stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 2);
    EXPECT_EQ(stats.custom_plans, 1);
    EXPECT_EQ(service.metrics().Snap().GaugeValue("plan_cache.entries"), 1);
  }

  Database db_;
};

TEST_F(ServeRuleTest, TypeChangePlansFresh) {
  ExpectCustomPlan("select eno from emp where salary > 24 order by eno",
                   "select eno from emp where salary > 24.5 order by eno",
                   "slot 0 is double, planned as int64");
}

// Which select item ORDER BY matches depends on literal equality
// (`order by eno + 2` alone would not bind, hence two select items). The
// executor cannot yet run an ORDER BY on a computed select item (its sort
// is placed below the projection that computes it), so this case checks
// the serve rule directly and that the cached path fails exactly as a
// fresh plan does.
TEST_F(ServeRuleTest, OrderByEqualityPatternPlansFresh) {
  const std::string planned =
      "select eno + 1, eno + 2 from emp order by eno + 1";
  const std::string request =
      "select eno + 1, eno + 2 from emp order by eno + 2";
  QueryEngine engine(&db_);
  Result<QueryResult> explained = engine.Explain(planned);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const PreparedPlan prepared = PreparedPlan::FromResult(explained.value());

  auto stmt = ParseSelect(request);
  ASSERT_TRUE(stmt.ok());
  auto query = BindQuery(*stmt.value(), db_);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(GenericPlanMismatch(prepared, stmt.value()->slot_values,
                                *query.value(), CostModel()),
            "slots 0 and 2 are distinct, planned equal");

  Result<QueryResult> cached = engine.RunPrepared(prepared, request);
  Result<QueryResult> fresh = engine.Run(request);
  ASSERT_FALSE(fresh.ok());
  EXPECT_EQ(cached.status().ToString(), fresh.status().ToString());
}

// Identical aggregates are computed once: whether two are identical
// depends on literal equality.
TEST_F(ServeRuleTest, AggregateEqualityPatternPlansFresh) {
  ExpectCustomPlan(
      "select dno, sum(salary * 2), sum(salary * 2) from emp "
      "group by dno order by dno",
      "select dno, sum(salary * 2), sum(salary * 3) from emp "
      "group by dno order by dno",
      "slots 0 and 1 are distinct, planned equal");
}

TEST_F(ServeRuleTest, SelectivityGuardPlansFresh) {
  // salary is uniform over [30, 200]: > 35 keeps nearly all rows, > 195
  // about 3% — far beyond the guard's factor.
  ExpectCustomPlan("select eno from emp where salary > 35 order by eno",
                   "select eno from emp where salary > 195 order by eno",
                   "selectivity of");
}

// Within the guard, every literal change is served by the one plan.
TEST_F(ServeRuleTest, NearbyLiteralsAreServed) {
  QueryService service(&db_, Config());
  const int64_t session = service.OpenSession();
  QueryEngine engine(&db_);
  for (int lo = 60; lo < 100; lo += 5) {
    const std::string sql = StrFormat(
        "select eno, salary from emp where salary > %d and dno = %d "
        "order by salary, eno",
        lo, lo % 12);
    Result<QueryResult> r = service.Execute(session, sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().planned_from_cache, lo != 60) << sql;
    EXPECT_TRUE(r.value().custom_plan_reason.empty())
        << r.value().custom_plan_reason;
    Result<QueryResult> fresh = engine.Run(sql);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(r.value().rows, fresh.value().rows) << sql;
  }
  PlanCacheStats stats = service.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 7);
  EXPECT_EQ(stats.custom_plans, 0);
  EXPECT_EQ(stats.literal_evictions, 0);
}

}  // namespace
}  // namespace ordopt
