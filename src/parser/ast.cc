#include "parser/ast.h"

#include "common/str_util.h"

namespace ordopt {

Expr::Expr() = default;
Expr::~Expr() = default;

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Column(std::string qual, std::string col) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumn;
  e->qualifier = std::move(qual);
  e->column = std::move(col);
  return e;
}

std::unique_ptr<Expr> Expr::Literal(Value v, int slot) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  e->slot = slot;
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinOp op, std::unique_ptr<Expr> l,
                                   std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return qualifier.empty() ? column : qualifier + "." + column;
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kBinary:
      return "(" + left->ToString() + " " + BinOpName(op) + " " +
             right->ToString() + ")";
    case Kind::kAggregate: {
      std::string inner = count_star ? "*" : arg->ToString();
      if (agg_distinct) inner = "distinct " + inner;
      return std::string(AggFuncName(agg)) + "(" + inner + ")";
    }
    case Kind::kIsNull:
      return "(" + arg->ToString() + (is_null_negated ? " is not null)"
                                                      : " is null)");
    case Kind::kInSubquery:
      return "(" + arg->ToString() + " in (" + subquery->ToString() + "))";
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = "select ";
  if (distinct) out += "distinct ";
  std::vector<std::string> parts;
  for (const SelectItem& item : items) {
    std::string s = item.star ? "*" : item.expr->ToString();
    if (!item.alias.empty()) s += " as " + item.alias;
    parts.push_back(std::move(s));
  }
  out += Join(parts, ", ");
  out += " from ";
  for (size_t i = 0; i < from.size(); ++i) {
    const TableRef& ref = from[i];
    std::string s = ref.derived != nullptr
                        ? "(" + ref.derived->ToString() + ")"
                        : ref.table_name;
    if (!ref.alias.empty() && ref.alias != ref.table_name) {
      s += " " + ref.alias;
    }
    if (i == 0) {
      out += s;
    } else if (ref.join == TableRef::JoinKind::kNone) {
      out += ", " + s;
    } else {
      out += ref.join == TableRef::JoinKind::kLeft ? " left join "
                                                   : " join ";
      out += s + " on " + ref.on->ToString();
    }
  }
  if (where != nullptr) out += " where " + where->ToString();
  if (!group_by.empty()) {
    parts.clear();
    for (const auto& g : group_by) parts.push_back(g->ToString());
    out += " group by " + Join(parts, ", ");
  }
  if (having != nullptr) out += " having " + having->ToString();
  if (!order_by.empty()) {
    parts.clear();
    for (const OrderItem& o : order_by) {
      std::string s = o.expr->ToString();
      if (o.dir == SortDirection::kDescending) s += " desc";
      parts.push_back(std::move(s));
    }
    out += " order by " + Join(parts, ", ");
  }
  if (limit >= 0) out += StrFormat(" limit %lld", static_cast<long long>(limit));
  if (union_next != nullptr) {
    out += union_all ? " union all " : " union ";
    out += union_next->ToString();
  }
  return out;
}

}  // namespace ordopt
