#include "harness.h"

#include <algorithm>
#include <chrono>

#include "common/str_util.h"
#include "tpcd/tpcd.h"

namespace tpcdbench {

using ordopt::OperatorProfile;
using ordopt::OpKind;
using ordopt::PlanNode;
using ordopt::Row;
using ordopt::Value;

namespace {

struct TemplateDef {
  const char* metric;
  const char* canonical_sql;
  /// Literals of the canonical text, each replaced everywhere it occurs.
  std::vector<std::string> canonical;
  /// Replacement values per literal set; set 0 repeats `canonical`.
  std::vector<std::vector<std::string>> sets;
  std::vector<OrderKey> order_by;
};

const std::vector<TemplateDef>& Templates() {
  static const std::vector<TemplateDef> defs = {
      {"q3_ms",
       ordopt::tpcd_queries::kQuery3,
       {"'1995-03-15'", "'building'"},
       {{"'1995-03-15'", "'building'"},
        {"'1995-03-08'", "'automobile'"},
        {"'1995-03-22'", "'machinery'"},
        {"'1995-03-01'", "'household'"}},
       {{1, true}, {2, false}}},
      {"pricing_ms",
       ordopt::tpcd_queries::kPricingSummary,
       {"'1998-08-01'"},
       {{"'1998-08-01'"}, {"'1998-07-25'"}, {"'1998-07-18'"}, {"'1998-07-11'"}},
       {{0, false}, {1, false}}},
      {"distinct_ms",
       ordopt::tpcd_queries::kDistinctShipdates,
       {"'1997-01-01'"},
       {{"'1997-01-01'"}, {"'1997-01-08'"}, {"'1997-01-15'"}, {"'1997-01-22'"}},
       {{0, false}}},
      {"late_ms",
       ordopt::tpcd_queries::kLateOrders,
       {"'1994-01-01'", "'1995-01-01'", "'1994-06-01'"},
       {{"'1994-01-01'", "'1995-01-01'", "'1994-06-01'"},
        {"'1994-01-08'", "'1995-01-08'", "'1994-06-08'"},
        {"'1994-01-15'", "'1995-01-15'", "'1994-06-15'"},
        {"'1994-01-22'", "'1995-01-22'", "'1994-06-22'"}},
       {{1, true}, {0, false}}},
      {"region_ms",
       ordopt::tpcd_queries::kRegionRevenue,
       {"'asia'"},
       {{"'asia'"}, {"'europe'"}, {"'america'"}, {"'africa'"}},
       {{1, true}}},
  };
  return defs;
}

void ReplaceAll(std::string* text, const std::string& from,
                const std::string& to) {
  for (size_t pos = text->find(from); pos != std::string::npos;
       pos = text->find(from, pos + to.size())) {
    text->replace(pos, from.size(), to);
  }
}

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashRow(const Row& row) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const Value& v : row) {
    std::string text = v.type() == ordopt::DataType::kDouble
                           ? ordopt::StrFormat("%.6g", v.AsDouble())
                           : v.ToString();
    text.push_back('\x1f');
    for (unsigned char c : text) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  return Mix(h);
}

struct SelfTimeWalker {
  const std::vector<OperatorProfile>& profile;
  std::vector<OperatorSelf>* out;
  size_t next = 0;

  // Pre-order output, post-order profile consumption (BuildOperatorTree
  // registers children before their parent).
  int Visit(const PlanNode& node, int parent) {
    const int me = static_cast<int>(out->size());
    out->push_back(OperatorSelf{node.kind});
    (*out)[me].parent = parent;
    int64_t child_ns = 0;
    for (const auto& child : node.children) {
      child_ns += (*out)[Visit(*child, me)].total_ns;
    }
    if (next < profile.size()) {
      const ordopt::OperatorStats& s = profile[next].stats;
      OperatorSelf& op = (*out)[me];
      op.total_ns = s.total_ns();
      op.rows_out = s.rows_out;
      op.self_ns = node.kind == OpKind::kExchange
                       ? op.total_ns
                       : std::max<int64_t>(0, op.total_ns - child_ns);
    }
    ++next;
    return me;
  }
};

}  // namespace

const char* TemplateMetric(int tmpl) { return Templates()[tmpl].metric; }

std::string RequestSql(int tmpl, int literal) {
  const TemplateDef& def = Templates()[tmpl];
  std::string sql = def.canonical_sql;
  for (size_t i = 0; i < def.canonical.size(); ++i) {
    ReplaceAll(&sql, def.canonical[i], def.sets[literal][i]);
  }
  return sql;
}

const std::vector<OrderKey>& TemplateOrderBy(int tmpl) {
  return Templates()[tmpl].order_by;
}

RequestStream::RequestStream(bool mixed, uint64_t seed, int client)
    : mixed_(mixed), rng_(Mix(seed) ^ Mix(static_cast<uint64_t>(client) + 1)) {}

Request RequestStream::Next() {
  Request r;
  if (mixed_) {
    r.tmpl = static_cast<int>(rng_.Uniform(0, kTemplates - 1));
    r.literal = static_cast<int>(rng_.Uniform(0, kLiteralSets - 1));
  } else {
    r.tmpl = static_cast<int>(issued_ % kTemplates);
  }
  ++issued_;
  return r;
}

Digest DigestRows(const std::vector<Row>& rows) {
  Digest d;
  d.rows = static_cast<int64_t>(rows.size());
  for (const Row& row : rows) d.checksum += HashRow(row);
  return d;
}

bool FollowsOrderBy(const std::vector<Row>& rows,
                    const std::vector<OrderKey>& keys) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const OrderKey& k : keys) {
      int c = rows[i - 1][k.column].Compare(rows[i][k.column]);
      if (k.desc) c = -c;
      if (c > 0) return false;
      if (c < 0) break;
    }
  }
  return true;
}

double TailPercentile(size_t samples) {
  if (samples < 20) return 0.0;
  return std::min(99.0, 100.0 - 1000.0 / static_cast<double>(samples));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double CalibrationSeconds(int reps) {
  constexpr size_t kKeys = size_t{1} << 16;
  static volatile uint64_t sink = 0;
  std::vector<uint64_t> keys(kKeys);
  std::vector<uint64_t> table(2 * kKeys);
  const size_t mask = table.size() - 1;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t x = 0;
    for (uint64_t& k : keys) k = Mix(x += 0x9e3779b97f4a7c15ULL) | 1;
    std::sort(keys.begin(), keys.end());
    std::fill(table.begin(), table.end(), 0);
    for (uint64_t k : keys) {
      size_t i = k & mask;
      while (table[i] != 0) i = (i + 1) & mask;
      table[i] = k;
    }
    uint64_t found = 0;
    for (uint64_t k : keys) {
      size_t i = k & mask;
      while (table[i] != k && table[i] != 0) i = (i + 1) & mask;
      found += table[i] == k;
    }
    sink = sink + found;
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  return Quantile(times, 0.5);
}

double SpeedFactor(double calibration_before_s, double calibration_after_s) {
  return kNominalCalibrationSeconds /
         (0.5 * (calibration_before_s + calibration_after_s));
}

std::vector<OperatorSelf> OperatorSelfTimes(
    const PlanNode& plan, const std::vector<OperatorProfile>& profile) {
  std::vector<OperatorSelf> out;
  SelfTimeWalker walker{profile, &out};
  walker.Visit(plan, -1);
  return out;
}

}  // namespace tpcdbench
