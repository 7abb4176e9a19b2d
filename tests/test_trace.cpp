// Observability tests: optimizer decision tracing (order reduced, sorts
// avoided/placed, cover-order merges), EXPLAIN ANALYZE per-operator stats,
// the JSON-lines export (validity, atomicity under injected write faults),
// and the RuntimeMetrics JSON rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/analyze.h"
#include "exec/engine.h"
#include "query_test_util.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

// Minimal recursive-descent JSON validity checker — objects, arrays,
// strings (with escapes), numbers, true/false/null. Enough to prove each
// exported line is well-formed without a JSON library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (static_cast<unsigned char>(s_[i_]) < 0x20) return false;
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
        char c = s_[i_];
        if (c == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++i_;
            if (i_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(
                                       s_[i_]))) {
              return false;
            }
          }
        } else if (c != '"' && c != '\\' && c != '/' && c != 'b' &&
                   c != 'f' && c != 'n' && c != 'r' && c != 't') {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }
  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }
  bool Value() {
    if (i_ >= s_.size()) return false;
    char c = s_[i_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& s_;
  size_t i_ = 0;
};

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    BuildToyDatabase(&db_);
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  QueryResult MustRun(const OptimizerConfig& cfg, const std::string& sql) {
    QueryEngine engine(&db_, cfg);
    Result<QueryResult> r = engine.Run(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Database db_;
};

OptimizerConfig TracedConfig() {
  OptimizerConfig cfg;
  cfg.trace_level = TraceLevel::kOptimizer;
  return cfg;
}

// A constant-bound leading column is reduced away and the clustered PK
// order does the rest: the trace must show the reduction and the avoided
// sort, and the chosen plan must contain no Sort.
TEST_F(TraceTest, SortAvoidedViaReduceOrder) {
  QueryResult r = MustRun(
      TracedConfig(),
      "select eno, salary from emp where dno = 3 order by dno, eno");
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GE(r.trace->Count("order.reduce"), 1);
  EXPECT_GE(r.trace->Count("sort.avoided"), 1);
  EXPECT_FALSE(r.plan->ContainsKind(OpKind::kSort));
  EXPECT_FALSE(r.plan->ContainsKind(OpKind::kTopN));

  const TraceEvent* reduce = r.trace->Find("order.reduce");
  ASSERT_NE(reduce, nullptr);
  // dno is bound to a constant, so the reduced spec drops it.
  EXPECT_NE(reduce->Get("requested").find("dno"), std::string::npos);
  EXPECT_EQ(reduce->Get("reduced").find("dno"), std::string::npos);
}

// When a sort is unavoidable it must still be minimal: the equal-bound
// leading column disappears from the executed sort key.
TEST_F(TraceTest, SortPlacedWithMinimalKey) {
  QueryResult r = MustRun(
      TracedConfig(),
      "select eno, salary, age from emp where salary = 100 "
      "order by salary, age");
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GE(r.trace->Count("sort.placed"), 1);

  std::vector<const PlanNode*> sorts;
  r.plan->CollectKind(OpKind::kSort, &sorts);
  ASSERT_EQ(sorts.size(), 1u);
  EXPECT_EQ(sorts[0]->sort_spec.size(), 1u);

  // At least one sort.placed event carries the reduced key: age without
  // salary.
  bool found = false;
  for (const TraceEvent& e : r.trace->events()) {
    if (e.name() != "sort.placed") continue;
    const std::string spec = e.Get("spec");
    if (spec.find("age") != std::string::npos &&
        spec.find("salary") == std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A merge join whose join column is a prefix of the requested order lets
// Cover Order produce one sort serving both; the merge must be traced.
TEST_F(TraceTest, CoverOrderMergeTraced) {
  OptimizerConfig cfg = TracedConfig();
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  QueryResult r = MustRun(
      cfg,
      "select e.eno, d.dname from emp e, dept d where e.dno = d.dno "
      "order by e.dno, e.eno");
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GE(r.trace->Count("order.cover"), 1);
  const TraceEvent* cover = r.trace->Find("order.cover");
  ASSERT_NE(cover, nullptr);
  EXPECT_FALSE(cover->Get("cover").empty());
}

// Every exported line must parse as a standalone JSON object and seq must
// be strictly increasing — consumers get an append-only, replayable log.
TEST_F(TraceTest, JsonLinesAreValid) {
  OptimizerConfig cfg = TracedConfig();
  cfg.trace_level = TraceLevel::kFull;
  // Exercise escaping through a string literal with quote-adjacent
  // characters, plus joins and grouping for event variety.
  QueryResult r = MustRun(
      cfg,
      "select dno, count(*), min(salary) from emp "
      "where dno >= 2 group by dno order by dno");
  ASSERT_NE(r.trace, nullptr);
  EXPECT_GT(r.trace->size(), 0u);

  std::istringstream lines(r.trace->ToJsonLines());
  std::string line;
  int64_t last_seq = 0;
  size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonChecker(line).Valid()) << line;
    // {"seq":N,"phase":"...","event":"..." — seq strictly increasing.
    long long seq = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "{\"seq\":%lld,", &seq), 1) << line;
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
    EXPECT_NE(line.find("\"phase\":"), std::string::npos);
    EXPECT_NE(line.find("\"event\":"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, r.trace->size());
  // kFull adds exec-phase operator events and the metrics rollup.
  EXPECT_GE(r.trace->Count("operator"), 1);
  EXPECT_EQ(r.trace->Count("metrics"), 1);
}

TEST_F(TraceTest, JsonEscapeControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  std::string line = "{\"k\":\"" + JsonEscape("q\"\n\x02") + "\"}";
  EXPECT_TRUE(JsonChecker(line).Valid());
}

// RuntimeMetrics::ToJson must itself be valid JSON — it is embedded raw
// into the exec metrics event.
TEST_F(TraceTest, MetricsToJsonIsValid) {
  QueryResult r = MustRun(OptimizerConfig(),
                          "select eno from emp order by salary");
  std::string json = r.metrics.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"rows_scanned\":"), std::string::npos);
  EXPECT_NE(json.find("\"sim_elapsed_seconds\":"), std::string::npos);
}

// EXPLAIN ANALYZE carries per-operator profiles aligned with the plan and
// renders est-vs-actual rows for every node.
TEST_F(TraceTest, RunAnalyzedProfilesEveryOperator) {
  QueryEngine engine(&db_, OptimizerConfig());
  Result<QueryResult> r =
      engine.RunAnalyzed("select eno, salary from emp order by salary");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  EXPECT_EQ(static_cast<int>(q.op_profile.size()), q.plan->NodeCount());
  EXPECT_NE(q.analyzed_plan_text.find("est="), std::string::npos);
  EXPECT_NE(q.analyzed_plan_text.find("act="), std::string::npos);

  std::vector<EstActualRow> rows = EstVsActualRows(q.plan, q.op_profile);
  ASSERT_EQ(static_cast<int>(rows.size()), q.plan->NodeCount());
  // The root (Project) actually produced the result rows.
  EXPECT_EQ(rows[0].act_rows, static_cast<int64_t>(q.rows.size()));
  for (const EstActualRow& row : rows) EXPECT_GE(row.q_error, 1.0);
}

// Cached-plan executions surface their provenance: RunPreparedAnalyzed
// renders the service summary line, the trace carries a plan.cached event,
// and the metrics rollup says planned_from_cache; a degraded engine config
// additionally marks the run degraded in all three places.
TEST_F(TraceTest, CachedAndDegradedRunsSurfaceProvenance) {
  QueryEngine engine(&db_, OptimizerConfig());
  const std::string sql = "select eno, salary from emp order by salary";
  Result<QueryResult> first = engine.RunAnalyzed(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first.value().analyzed_plan_text.find("service: source=planner"),
            std::string::npos);
  PreparedPlan prepared = PreparedPlan::FromResult(first.value());

  Result<QueryResult> cached = engine.RunPreparedAnalyzed(prepared, sql);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const QueryResult& q = cached.value();
  EXPECT_TRUE(q.planned_from_cache);
  EXPECT_NE(q.analyzed_plan_text.find("service: source=plan-cache"),
            std::string::npos);
  // Same per-operator coverage as a planned EXPLAIN ANALYZE, with real
  // column names from the prepared plan's namer.
  EXPECT_EQ(static_cast<int>(q.op_profile.size()), q.plan->NodeCount());
  EXPECT_NE(q.analyzed_plan_text.find("salary"), std::string::npos);
  ASSERT_NE(q.trace, nullptr);
  EXPECT_GE(q.trace->Count("plan.cached"), 1);
  std::string json = q.trace->ToJsonLines();
  EXPECT_NE(json.find("\"planned_from_cache\":true"), std::string::npos);
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  }

  OptimizerConfig degraded_cfg;
  degraded_cfg.degraded_mode = true;
  degraded_cfg.cost_params.sort_memory_rows = 64;
  QueryEngine degraded(&db_, degraded_cfg);
  Result<QueryResult> d = degraded.RunPreparedAnalyzed(prepared, sql);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d.value().degraded);
  EXPECT_NE(d.value().analyzed_plan_text.find("degraded=true"),
            std::string::npos);
  ASSERT_NE(d.value().trace, nullptr);
  EXPECT_GE(d.value().trace->Count("degraded"), 1);
  EXPECT_NE(d.value().trace->ToJsonLines().find("\"degraded\":true"),
            std::string::npos);
}

// A cached plan run at other literals names the request's literals
// wherever it prints (plan text, QGM text, EXPLAIN ANALYZE, aggregate
// names), says its estimates were made at the planning literals, and marks
// its plan.cached event generic with the slot count.
TEST_F(TraceTest, CachedRunAtOtherLiteralsNamesRequestLiterals) {
  QueryEngine engine(&db_, OptimizerConfig());
  const std::string planned =
      "select dno, sum(salary * 2) from emp where salary > 123 "
      "group by dno order by dno";
  const std::string request =
      "select dno, sum(salary * 3) from emp where salary > 145 "
      "group by dno order by dno";
  Result<QueryResult> first = engine.RunAnalyzed(planned);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  PreparedPlan prepared = PreparedPlan::FromResult(first.value());

  Result<QueryResult> cached = engine.RunPreparedAnalyzed(prepared, request);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  const QueryResult& q = cached.value();
  ASSERT_TRUE(q.planned_from_cache) << q.custom_plan_reason;
  for (const std::string* text :
       {&q.plan_text, &q.qgm_text, &q.analyzed_plan_text}) {
    EXPECT_NE(text->find("145"), std::string::npos) << *text;
    EXPECT_EQ(text->find("123"), std::string::npos) << *text;
  }
  for (const std::string* text : {&q.plan_text, &q.analyzed_plan_text}) {
    EXPECT_NE(text->find("salary * 3"), std::string::npos) << *text;
    EXPECT_EQ(text->find("salary * 2"), std::string::npos) << *text;
  }
  EXPECT_NE(q.analyzed_plan_text.find(
                "service: source=plan-cache estimates=planning-literals"),
            std::string::npos)
      << q.analyzed_plan_text;
  ASSERT_NE(q.trace, nullptr);
  const TraceEvent* event = q.trace->Find("plan.cached");
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->Get("generic"), "true");
  EXPECT_EQ(event->Get("slots"), "2");

  // The same literals again: served, not generic.
  Result<QueryResult> same = engine.RunPreparedAnalyzed(prepared, planned);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  ASSERT_NE(same.value().trace, nullptr);
  EXPECT_EQ(same.value().trace->Find("plan.cached")->Get("generic"), "false");
  EXPECT_EQ(same.value().plan_text, first.value().plan_text);

  // And the rows are a fresh plan's.
  Result<QueryResult> fresh = engine.Run(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(q.rows, fresh.value().rows);
  EXPECT_EQ(q.column_names, fresh.value().column_names);
}

// Per-operator q-error lands in the exec.q_error histogram whenever
// per-operator stats are collected, one sample per operator, and not at
// all when they are off.
TEST_F(TraceTest, QErrorHistogramFollowsOperatorStats) {
  MetricsRegistry registry;
  OptimizerConfig cfg;
  cfg.metrics = &registry;
  QueryEngine engine(&db_, cfg);
  const std::string sql =
      "select eno, salary from emp where salary > 150 order by salary";
  ASSERT_TRUE(engine.Run(sql).ok());
  const HistogramSnapshot* off = registry.Snap().FindHistogram("exec.q_error");
  EXPECT_TRUE(off == nullptr || off->count == 0);

  Result<QueryResult> r = engine.RunAnalyzed(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  MetricsSnapshot snap = registry.Snap();
  const HistogramSnapshot* on = snap.FindHistogram("exec.q_error");
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->count, r.value().plan->NodeCount());
  EXPECT_GE(on->min, 1);
  int64_t worst = 0;
  for (const EstActualRow& row :
       EstVsActualRows(r.value().plan, r.value().op_profile)) {
    worst = std::max<int64_t>(worst, std::llround(row.q_error));
  }
  EXPECT_EQ(on->max, worst);
}

// An injected trace-write fault that outlasts the retry budget must fail
// the query with kIoError and leave neither the file nor its temp behind.
TEST_F(TraceTest, TraceWriteFaultLeavesNoPartialFile) {
  std::string path =
      (std::filesystem::temp_directory_path() / "ordopt_trace_fault.jsonl")
          .string();
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  OptimizerConfig cfg;
  cfg.trace_path = path;
  FaultInjector::Global().Arm("exec.trace.write", /*fire_after=*/0,
                              /*fire_count=*/-1, StatusCode::kIoError);
  QueryEngine engine(&db_, cfg);
  Result<QueryResult> r = engine.Run("select eno from emp order by salary");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // A single transient blip is absorbed by the retry policy: the query
  // succeeds and the export is complete, valid JSON.
  FaultInjector::Global().DisarmAll();
  FaultInjector::Global().Arm("exec.trace.write", 0, 1, StatusCode::kIoError);
  Result<QueryResult> ok = engine.Run("select eno from emp order by salary");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(FaultInjector::Global().FireCount("exec.trace.write"), 1);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, ok.value().trace->size());
  std::remove(path.c_str());
}

// Acceptance: EXPLAIN ANALYZE on TPC-D Q3 shows per-operator est/actual
// rows and at least one traced order-optimization decision.
TEST(TraceTpcdTest, Query3AnalyzedWithDecisions) {
  Database db;
  TpcdConfig data;
  data.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpcd(&db, data).ok());

  OptimizerConfig cfg;
  cfg.enable_hash_join = false;
  cfg.enable_hash_grouping = false;
  QueryEngine engine(&db, cfg);
  Result<QueryResult> r = engine.RunAnalyzed(tpcd_queries::kQuery3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  EXPECT_NE(q.analyzed_plan_text.find("est="), std::string::npos);
  EXPECT_NE(q.analyzed_plan_text.find("act="), std::string::npos);
  EXPECT_NE(q.analyzed_plan_text.find("decisions:"), std::string::npos);
  ASSERT_NE(q.trace, nullptr);
  int64_t decisions = q.trace->Count("order.reduce") +
                      q.trace->Count("sort.avoided") +
                      q.trace->Count("sort.placed") +
                      q.trace->Count("order.cover") +
                      q.trace->Count("order.homogenize") +
                      q.trace->Count("sortahead.candidate");
  EXPECT_GE(decisions, 1);
  EXPECT_EQ(q.trace->Count("plan.chosen"), 1);
}

// In-sort aggregation keeps EXPLAIN ANALYZE's pairing of plan nodes with
// operators: pricing summary under the DB2/CS profile still has one profile
// per node — with and without the order checkers wrapping the sort — and
// its Sort emits no row (every group stayed resident) while the
// SortGroupBy emits every group.
TEST(TraceTpcdTest, PricingSummaryInSortAggregationProfilesPairWithPlan) {
  Database db;
  TpcdConfig data;
  data.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpcd(&db, data).ok());
  for (bool verify : {false, true}) {
    SCOPED_TRACE(verify);
    OptimizerConfig cfg;
    cfg.enable_hash_join = false;
    cfg.enable_hash_grouping = false;
    cfg.verify_orders = verify;
    QueryEngine engine(&db, cfg);
    Result<QueryResult> r = engine.RunAnalyzed(tpcd_queries::kPricingSummary);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryResult& q = r.value();
    ASSERT_EQ(static_cast<int>(q.op_profile.size()), q.plan->NodeCount());
    std::set<const PlanNode*> nodes;
    for (const OperatorProfile& p : q.op_profile) nodes.insert(p.node);
    EXPECT_EQ(static_cast<int>(nodes.size()), q.plan->NodeCount());

    const std::string groups = std::to_string(q.rows.size());
    int sort_lines = 0;
    int group_by_lines = 0;
    std::istringstream text(q.analyzed_plan_text);
    std::string line;
    while (std::getline(text, line)) {
      const std::string op = line.substr(line.find_first_not_of(' '));
      if (op.rfind("Sort(", 0) == 0) {
        ++sort_lines;
        EXPECT_NE(line.find(" act=0 "), std::string::npos) << line;
      } else if (op.rfind("SortGroupBy[", 0) == 0) {
        ++group_by_lines;
        EXPECT_NE(line.find(" act=" + groups + " "), std::string::npos)
            << line;
      }
    }
    EXPECT_EQ(sort_lines, 1);
    EXPECT_EQ(group_by_lines, 1);
  }
}

// UNION DISTINCT decides its sorts through the grouping builder, so the
// decisions block names them: a Sort over the concatenation, the sort the
// merge union avoids, and a branch sorted for the merge.
TEST(TraceTpcdTest, UnionDistinctSortsAreDecisions) {
  const char* kUnion =
      "select o_custkey from orders where o_orderkey < 50 union "
      "select c_custkey from customer where c_custkey < 40";
  // The decisions-block lines for `event` at `site`.
  auto decided = [](const QueryResult& q, const std::string& event,
                    const std::string& site) {
    const std::string& text = q.analyzed_plan_text;
    const size_t start = text.find("decisions:\n");
    if (start == std::string::npos) return 0;
    std::istringstream block(text.substr(start));
    int lines = 0;
    std::string line;
    while (std::getline(block, line)) {
      if (line.find(" " + event + " ") != std::string::npos &&
          line.find(" site=" + site + " ") != std::string::npos) {
        ++lines;
      }
    }
    return lines;
  };
  auto analyze = [&](Database* db, const OptimizerConfig& cfg) {
    QueryEngine engine(db, cfg);
    Result<QueryResult> r = engine.RunAnalyzed(kUnion);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : QueryResult();
  };

  Database db;
  TpcdConfig data;
  data.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, data).ok());
  // Hash grouping and order optimization off: Sort + StreamDistinct.
  OptimizerConfig off;
  off.enable_hash_grouping = false;
  off.enable_order_optimization = false;
  const QueryResult plain = analyze(&db, off);
  EXPECT_GE(decided(plain, "sort.placed", "union.distinct"), 1)
      << plain.analyzed_plan_text;
  // Both on: the merge union's stream needs no sort. Each branch has an
  // ordered access path here (orders_custkey, customer_pk).
  const QueryResult merged = analyze(&db, OptimizerConfig());
  EXPECT_GE(decided(merged, "sort.avoided", "union.distinct"), 1)
      << merged.analyzed_plan_text;

  // Without indexes or sort-ahead no branch arrives ordered: each is
  // sorted for the merge union.
  Database bare;
  data.with_indexes = false;
  ASSERT_TRUE(LoadTpcd(&bare, data).ok());
  OptimizerConfig no_sort_ahead;
  no_sort_ahead.enable_sort_ahead = false;
  const QueryResult sorted = analyze(&bare, no_sort_ahead);
  EXPECT_GE(decided(sorted, "sort.placed", "union.branch"), 1)
      << sorted.analyzed_plan_text;
  EXPECT_GE(decided(sorted, "sort.avoided", "union.distinct"), 1)
      << sorted.analyzed_plan_text;
}

// The decisions block prints each distinct line once, suffixed " xN" for N
// repeats; the counts add back up to the optimizer events. Hash operators
// on widen the join enumeration, so Q3 re-tests the same orders often.
TEST(TraceTpcdTest, Query3DecisionsAreDeduplicated) {
  Database db;
  TpcdConfig data;
  data.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpcd(&db, data).ok());
  QueryEngine engine(&db, OptimizerConfig());
  Result<QueryResult> r = engine.RunAnalyzed(tpcd_queries::kQuery3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& q = r.value();
  ASSERT_NE(q.trace, nullptr);
  const std::string& text = q.analyzed_plan_text;
  const size_t start = text.find("decisions:\n");
  ASSERT_NE(start, std::string::npos);

  std::istringstream block(text.substr(start + std::strlen("decisions:\n")));
  std::set<std::string> seen;
  int64_t total = 0;
  bool repeated = false;
  std::string line;
  while (std::getline(block, line)) {
    EXPECT_TRUE(seen.insert(line).second) << "repeated line: " << line;
    int64_t count = 1;
    const size_t x = line.rfind(" x");
    if (x != std::string::npos && x + 2 < line.size() &&
        line.find_first_not_of("0123456789", x + 2) == std::string::npos) {
      count = std::stoll(line.substr(x + 2));
      EXPECT_GT(count, 1) << line;
      repeated = true;
    }
    total += count;
  }
  int64_t optimizer_events = 0;
  for (const TraceEvent& e : q.trace->events()) {
    if (e.phase() == "optimizer") ++optimizer_events;
  }
  EXPECT_EQ(total, optimizer_events);
  EXPECT_LT(static_cast<int64_t>(seen.size()), optimizer_events);
  EXPECT_TRUE(repeated);
}

}  // namespace
}  // namespace ordopt
