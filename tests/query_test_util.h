// Shared helpers for end-to-end query tests: a toy database and an
// independent reference evaluator that computes query results naively
// (cartesian products, direct grouping) without touching the optimizer or
// the Volcano executor.

#ifndef ORDOPT_TESTS_QUERY_TEST_UTIL_H_
#define ORDOPT_TESTS_QUERY_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/str_util.h"
#include "exec/expr_eval.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/qgm.h"
#include "storage/database.h"

namespace ordopt {

/// Row-at-a-time expression evaluation for the reference evaluator: columns
/// bind through a layout, and a predicate holds iff its value is non-NULL
/// and non-zero (SQL three-valued logic folded to two, as in WHERE).
class RowEvaluator {
 public:
  explicit RowEvaluator(std::vector<ColumnId> layout)
      : layout_(std::move(layout)) {}

  int PositionOf(const ColumnId& col) const {
    auto it = std::find(layout_.begin(), layout_.end(), col);
    return it == layout_.end() ? -1 : static_cast<int>(it - layout_.begin());
  }

  Value Eval(const BoundExpr& expr, const Row& row) const {
    switch (expr.kind()) {
      case BoundExpr::Kind::kLiteral:
        return expr.literal();
      case BoundExpr::Kind::kColumn: {
        const int pos = PositionOf(expr.column());
        ORDOPT_CHECK(pos >= 0);
        return row[static_cast<size_t>(pos)];
      }
      case BoundExpr::Kind::kBinary: {
        std::optional<Value> v = EvalBinary(
            expr.op(), Eval(expr.left(), row), Eval(expr.right(), row));
        ORDOPT_CHECK_MSG(v.has_value(), "reference evaluator: int64 overflow");
        return *std::move(v);
      }
      case BoundExpr::Kind::kIsNull: {
        const bool is_null = Eval(expr.is_null_child(), row).is_null();
        return Value::Int(is_null != expr.is_null_negated() ? 1 : 0);
      }
    }
    return Value::Null();
  }

  bool EvalPredicate(const Predicate& pred, const Row& row) const {
    const Value v = Eval(pred.expr, row);
    return !v.is_null() && v.Compare(Value::Int(0)) != 0;
  }

 private:
  std::vector<ColumnId> layout_;
};

/// Builds a small three-table database with keys and indexes exercising
/// every access path: dept(dno key, dname, budget), emp(eno key, dno,
/// salary, age), task(tno, eno, hours) with duplicates and NULLs.
inline void BuildToyDatabase(Database* db, uint64_t seed = 7,
                             int emp_count = 200) {
  Rng rng(seed);
  {
    TableDef def;
    def.name = "dept";
    def.columns = {{"dno", DataType::kInt64},
                   {"dname", DataType::kString},
                   {"budget", DataType::kInt64}};
    def.AddUniqueKey({"dno"});
    def.AddIndex("dept_pk", {"dno"}, /*unique=*/true, /*clustered=*/true);
    Table* t = db->CreateTable(def).value();
    for (int64_t d = 0; d < 12; ++d) {
      t->AppendRow({Value::Int(d), Value::Str(StrFormat("dept%02d",
                                                        static_cast<int>(d))),
                    Value::Int(rng.Uniform(10, 500))});
    }
  }
  {
    TableDef def;
    def.name = "emp";
    def.columns = {{"eno", DataType::kInt64},
                   {"dno", DataType::kInt64},
                   {"salary", DataType::kInt64},
                   {"age", DataType::kInt64}};
    def.AddUniqueKey({"eno"});
    def.AddIndex("emp_pk", {"eno"}, /*unique=*/true, /*clustered=*/true);
    def.AddIndex("emp_dno", {"dno"});
    Table* t = db->CreateTable(def).value();
    for (int64_t e = 0; e < emp_count; ++e) {
      // A few NULL departments to exercise join NULL semantics.
      Value dno = rng.Chance(0.05) ? Value::Null()
                                   : Value::Int(rng.Uniform(0, 11));
      t->AppendRow({Value::Int(e), dno, Value::Int(rng.Uniform(30, 200)),
                    Value::Int(rng.Uniform(18, 65))});
    }
  }
  {
    TableDef def;
    def.name = "task";
    def.columns = {{"tno", DataType::kInt64},
                   {"eno", DataType::kInt64},
                   {"hours", DataType::kInt64}};
    def.AddIndex("task_eno", {"eno"});
    Table* t = db->CreateTable(def).value();
    int64_t tno = 0;
    for (int64_t e = 0; e < emp_count; ++e) {
      int64_t n = rng.Uniform(0, 4);
      for (int64_t k = 0; k < n; ++k) {
        t->AppendRow({Value::Int(tno++), Value::Int(e),
                      Value::Int(rng.Uniform(1, 40))});
      }
    }
  }
  ORDOPT_CHECK(db->FinalizeAll().ok());
}

/// Naive reference evaluation of a bound QGM box tree. Returns rows in an
/// implementation-defined order; callers compare as multisets and check
/// ORDER BY separately.
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Query& query) : query_(query) {}

  struct Relation {
    std::vector<ColumnId> layout;
    std::vector<Row> rows;
  };

  Relation Evaluate() { return EvaluateBox(query_.root); }

 private:
  Relation EvaluateBase(const Quantifier& q) {
    Relation rel;
    for (size_t i = 0; i < q.table->def().columns.size(); ++i) {
      rel.layout.emplace_back(q.id, static_cast<int32_t>(i));
    }
    rel.rows = q.table->rows();
    return rel;
  }

  Relation EvaluateBox(const QgmBox* box) {
    if (box->kind == QgmBox::Kind::kGroupBy) {
      return EvaluateGroupBy(box);
    }
    if (box->kind == QgmBox::Kind::kUnion) {
      Relation out;
      for (const OutputColumn& oc : box->outputs) out.layout.push_back(oc.id);
      for (const Quantifier& q : box->quantifiers) {
        Relation branch = EvaluateBox(q.input);
        for (Row& row : branch.rows) out.rows.push_back(std::move(row));
      }
      if (box->distinct) {
        std::map<std::vector<Value>, bool> seen;
        std::vector<Row> unique;
        for (Row& row : out.rows) {
          std::vector<Value> key(row.begin(), row.end());
          if (seen.emplace(std::move(key), true).second) {
            unique.push_back(std::move(row));
          }
        }
        out.rows = std::move(unique);
      }
      return out;
    }
    // Cartesian product of all quantifiers.
    Relation acc;
    bool first = true;
    for (const Quantifier& q : box->quantifiers) {
      Relation next = q.IsBase() ? EvaluateBase(q) : EvaluateBox(q.input);
      if (first) {
        acc = std::move(next);
        first = false;
        continue;
      }
      Relation product;
      product.layout = acc.layout;
      product.layout.insert(product.layout.end(), next.layout.begin(),
                            next.layout.end());
      for (const Row& l : acc.rows) {
        for (const Row& r : next.rows) {
          Row combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          product.rows.push_back(std::move(combined));
        }
      }
      acc = std::move(product);
    }
    // Apply LEFT OUTER JOIN steps in order (naive semantics).
    for (const OuterJoinStep& step : box->outer_joins) {
      Relation inner = step.quantifier.IsBase()
                           ? EvaluateBase(step.quantifier)
                           : EvaluateBox(step.quantifier.input);
      Relation joined;
      joined.layout = acc.layout;
      joined.layout.insert(joined.layout.end(), inner.layout.begin(),
                           inner.layout.end());
      RowEvaluator on_eval(joined.layout);
      for (const Row& l : acc.rows) {
        bool matched = false;
        for (const Row& r : inner.rows) {
          Row combined = l;
          combined.insert(combined.end(), r.begin(), r.end());
          bool pass = true;
          for (const Predicate& p : step.on_predicates) {
            if (!on_eval.EvalPredicate(p, combined)) {
              pass = false;
              break;
            }
          }
          if (pass) {
            matched = true;
            joined.rows.push_back(std::move(combined));
          }
        }
        if (!matched) {
          Row padded = l;
          for (size_t i = 0; i < inner.layout.size(); ++i) {
            padded.push_back(Value::Null());
          }
          joined.rows.push_back(std::move(padded));
        }
      }
      acc = std::move(joined);
    }
    // Apply every predicate.
    RowEvaluator eval(acc.layout);
    std::vector<Row> kept;
    for (const Row& row : acc.rows) {
      bool pass = true;
      for (const Predicate& p : box->predicates) {
        if (!eval.EvalPredicate(p, row)) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(row);
    }
    acc.rows = std::move(kept);
    // Project to outputs.
    Relation out;
    for (const OutputColumn& oc : box->outputs) out.layout.push_back(oc.id);
    for (const Row& row : acc.rows) {
      Row projected;
      for (const OutputColumn& oc : box->outputs) {
        projected.push_back(eval.Eval(oc.expr, row));
      }
      out.rows.push_back(std::move(projected));
    }
    if (box->distinct) {
      std::map<std::vector<Value>, bool> seen;
      std::vector<Row> unique;
      for (Row& row : out.rows) {
        std::vector<Value> key(row.begin(), row.end());
        if (seen.emplace(std::move(key), true).second) {
          unique.push_back(std::move(row));
        }
      }
      out.rows = std::move(unique);
    }
    return out;
  }

  Relation EvaluateGroupBy(const QgmBox* box) {
    Relation input = EvaluateBox(box->quantifiers[0].input);
    RowEvaluator eval(input.layout);

    Relation out;
    for (const ColumnId& c : box->group_columns) out.layout.push_back(c);
    for (const AggregateSpec& a : box->aggregates) {
      out.layout.push_back(a.output);
    }

    std::map<std::vector<Value>, std::vector<const Row*>> groups;
    for (const Row& row : input.rows) {
      std::vector<Value> key;
      for (const ColumnId& c : box->group_columns) {
        key.push_back(row[static_cast<size_t>(eval.PositionOf(c))]);
      }
      groups[std::move(key)].push_back(&row);
    }
    if (groups.empty() && box->group_columns.empty()) {
      groups.emplace(std::vector<Value>{}, std::vector<const Row*>{});
    }
    for (const auto& [key, members] : groups) {
      Row out_row(key.begin(), key.end());
      for (const AggregateSpec& a : box->aggregates) {
        std::vector<Value> values;
        for (const Row* row : members) {
          if (a.count_star) {
            values.push_back(Value::Int(1));
            continue;
          }
          Value v = eval.Eval(a.arg, *row);
          if (!v.is_null()) values.push_back(v);
        }
        if (a.distinct) {
          std::vector<Value> unique;
          for (const Value& v : values) {
            bool dup = false;
            for (const Value& u : unique) dup = dup || u.Compare(v) == 0;
            if (!dup) unique.push_back(v);
          }
          values = std::move(unique);
        }
        switch (a.func) {
          case AggFunc::kCount:
            out_row.push_back(Value::Int(static_cast<int64_t>(values.size())));
            break;
          case AggFunc::kSum:
          case AggFunc::kAvg: {
            if (values.empty()) {
              out_row.push_back(Value::Null());
              break;
            }
            bool all_int = true;
            for (const Value& v : values) {
              all_int = all_int && v.type() == DataType::kInt64;
            }
            double total = 0;
            int64_t total_i = 0;
            for (const Value& v : values) {
              total += v.AsDouble();
              if (all_int) total_i += v.AsInt();
            }
            if (a.func == AggFunc::kAvg) {
              out_row.push_back(
                  Value::Double(total / static_cast<double>(values.size())));
            } else if (all_int) {
              out_row.push_back(Value::Int(total_i));
            } else {
              out_row.push_back(Value::Double(total));
            }
            break;
          }
          case AggFunc::kMin:
          case AggFunc::kMax: {
            if (values.empty()) {
              out_row.push_back(Value::Null());
              break;
            }
            Value best = values[0];
            for (const Value& v : values) {
              int c = v.Compare(best);
              if ((a.func == AggFunc::kMin && c < 0) ||
                  (a.func == AggFunc::kMax && c > 0)) {
                best = v;
              }
            }
            out_row.push_back(best);
            break;
          }
        }
      }
      out.rows.push_back(std::move(out_row));
    }
    return out;
  }

  const Query& query_;
};

/// Canonical multiset representation for result comparison: each row as a
/// sorted list of rendered values.
inline std::vector<std::vector<std::string>> Canonicalize(
    const std::vector<Row>& rows) {
  std::vector<std::vector<std::string>> out;
  for (const Row& row : rows) {
    std::vector<std::string> r;
    for (const Value& v : row) {
      // Render numerics through double so 3 == 3.0 compares equal.
      if (v.type() == DataType::kInt64 || v.type() == DataType::kDouble) {
        r.push_back(StrFormat("%.6f", v.AsDouble()));
      } else {
        r.push_back(v.ToString());
      }
    }
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Verifies `rows` are ordered by `spec` over the given layout.
inline bool RowsOrderedBy(const std::vector<Row>& rows,
                          const std::vector<ColumnId>& layout,
                          const OrderSpec& spec) {
  ExprEvaluator eval(layout);
  std::vector<int> pos;
  std::vector<bool> desc;
  for (const OrderElement& e : spec) {
    int p = eval.PositionOf(e.col);
    if (p < 0) return false;
    pos.push_back(p);
    desc.push_back(e.dir == SortDirection::kDescending);
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    for (size_t k = 0; k < pos.size(); ++k) {
      int c = rows[i - 1][static_cast<size_t>(pos[k])].Compare(
          rows[i][static_cast<size_t>(pos[k])]);
      if (desc[k]) c = -c;
      if (c < 0) break;
      if (c > 0) return false;
    }
  }
  return true;
}

}  // namespace ordopt

#endif  // ORDOPT_TESTS_QUERY_TEST_UTIL_H_
