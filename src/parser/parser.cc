#include "parser/parser.h"

#include <set>

#include "common/str_util.h"
#include "parser/token.h"

namespace ordopt {

namespace {

// Words that cannot serve as bare aliases.
const std::set<std::string>& ReservedWords() {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "select", "distinct", "all",  "from",   "where", "group",
      "by",     "order",    "asc",  "desc",   "as",    "and",
      "date",   "having",   "join", "left",   "inner", "on",
      "outer",  "limit",  "union",  "or",   "in",    "between",
      "is",     "not",    "null"};
  return *kWords;
}

bool IsAggName(const std::string& name, AggFunc* out) {
  if (name == "sum") {
    *out = AggFunc::kSum;
  } else if (name == "count") {
    *out = AggFunc::kCount;
  } else if (name == "min") {
    *out = AggFunc::kMin;
  } else if (name == "max") {
    *out = AggFunc::kMax;
  } else if (name == "avg") {
    *out = AggFunc::kAvg;
  } else {
    return false;
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<SelectStmt>> Parse() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect());
    if (Peek().kind != TokenKind::kEndOfInput) {
      return Error("trailing input after statement");
    }
    stmt->slot_values = std::move(slot_values_);
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(const char* symbol_or_kw) {
    if (Peek().IsSymbol(symbol_or_kw) || Peek().IsKeyword(symbol_or_kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& what) const {
    const Token& t = Peek();
    std::string got =
        t.kind == TokenKind::kEndOfInput ? "end of input" : "'" + t.text + "'";
    return Status::ParseError(
        StrFormat("%s (at offset %zu, got %s)", what.c_str(), t.offset,
                  got.c_str()));
  }
  Status Expect(const char* symbol_or_kw) {
    if (Accept(symbol_or_kw)) return Status::OK();
    return Error(StrFormat("expected '%s'", symbol_or_kw));
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    ORDOPT_RETURN_NOT_OK(Expect("select"));
    auto stmt = std::make_unique<SelectStmt>();
    if (Accept("distinct")) {
      stmt->distinct = true;
    } else {
      Accept("all");
    }

    // Select list.
    do {
      SelectItem item;
      if (Peek().IsSymbol("*")) {
        Advance();
        item.star = true;
      } else {
        ORDOPT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Accept("as")) {
          if (Peek().kind != TokenKind::kIdentifier) {
            return Error("expected alias after AS");
          }
          item.alias = Advance().text;
        } else if (Peek().kind == TokenKind::kIdentifier &&
                   ReservedWords().count(Peek().text) == 0) {
          item.alias = Advance().text;
        }
      }
      stmt->items.push_back(std::move(item));
    } while (Accept(","));

    ORDOPT_RETURN_NOT_OK(Expect("from"));
    do {
      ORDOPT_RETURN_NOT_OK(ParseTableRef(stmt.get(), TableRef::JoinKind::kNone));
      // JOIN ... ON chains attach to everything parsed so far.
      while (true) {
        TableRef::JoinKind kind;
        if (Accept("left")) {
          Accept("outer");
          ORDOPT_RETURN_NOT_OK(Expect("join"));
          kind = TableRef::JoinKind::kLeft;
        } else if (Accept("inner")) {
          ORDOPT_RETURN_NOT_OK(Expect("join"));
          kind = TableRef::JoinKind::kInner;
        } else if (Accept("join")) {
          kind = TableRef::JoinKind::kInner;
        } else {
          break;
        }
        ORDOPT_RETURN_NOT_OK(ParseTableRef(stmt.get(), kind));
        ORDOPT_RETURN_NOT_OK(Expect("on"));
        ORDOPT_ASSIGN_OR_RETURN(stmt->from.back().on, ParseExpr());
      }
    } while (Accept(","));

    if (Accept("where")) {
      ORDOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (Accept("group")) {
      ORDOPT_RETURN_NOT_OK(Expect("by"));
      do {
        ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (Accept(","));
    }
    if (Accept("having")) {
      ORDOPT_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (Accept("order")) {
      ORDOPT_RETURN_NOT_OK(Expect("by"));
      do {
        OrderItem item;
        ORDOPT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Accept("desc")) {
          item.dir = SortDirection::kDescending;
        } else {
          Accept("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Accept(","));
    }
    if (Accept("limit")) {
      if (Peek().kind != TokenKind::kInteger) {
        return Error("expected row count after LIMIT");
      }
      stmt->limit = std::stoll(Advance().text);
    }
    if (Accept("union")) {
      if (!stmt->order_by.empty() || stmt->limit >= 0) {
        return Error(
            "ORDER BY / LIMIT may only appear on the last block of a UNION");
      }
      stmt->union_all = Accept("all");
      ORDOPT_ASSIGN_OR_RETURN(stmt->union_next, ParseSelect());
    }
    return stmt;
  }

  // One FROM item (base table or derived table), appended to stmt->from
  // with the given join kind.
  Status ParseTableRef(SelectStmt* stmt, TableRef::JoinKind kind) {
    TableRef ref;
    ref.join = kind;
    if (Accept("(")) {
      ORDOPT_ASSIGN_OR_RETURN(ref.derived, ParseSelect());
      ORDOPT_RETURN_NOT_OK(Expect(")"));
      Accept("as");
      if (Peek().kind != TokenKind::kIdentifier ||
          ReservedWords().count(Peek().text) > 0) {
        return Error("derived table requires an alias");
      }
      ref.alias = Advance().text;
    } else {
      if (Peek().kind != TokenKind::kIdentifier ||
          ReservedWords().count(Peek().text) > 0) {
        return Error("expected table name");
      }
      ref.table_name = Advance().text;
      ref.alias = ref.table_name;
      if (Accept("as")) {
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected alias after AS");
        }
        ref.alias = Advance().text;
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 ReservedWords().count(Peek().text) == 0) {
        ref.alias = Advance().text;
      }
    }
    stmt->from.push_back(std::move(ref));
    return Status::OK();
  }

  // expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<Expr>> ParseExpr() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAnd());
    while (Accept("or")) {
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAnd());
      left = Expr::Binary(BinOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  // and_expr := cmp (AND cmp)*
  Result<std::unique_ptr<Expr>> ParseAnd() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseComparison());
    while (Accept("and")) {
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseComparison());
      left = Expr::Binary(BinOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAdditive());
    // Postfix predicates: IS [NOT] NULL, BETWEEN lo AND hi, IN (v, ...).
    if (Accept("is")) {
      bool negated = Accept("not");
      ORDOPT_RETURN_NOT_OK(Expect("null"));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kIsNull;
      e->is_null_negated = negated;
      e->arg = std::move(left);
      return e;
    }
    if (Accept("between")) {
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lo, ParseAdditive());
      ORDOPT_RETURN_NOT_OK(Expect("and"));
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> hi, ParseAdditive());
      // Desugar to (left >= lo AND left <= hi); the copy of `left` is a
      // re-parse-free deep clone.
      std::unique_ptr<Expr> left2 = CloneExpr(*left);
      return Expr::Binary(
          BinOp::kAnd,
          Expr::Binary(BinOp::kGe, std::move(left), std::move(lo)),
          Expr::Binary(BinOp::kLe, std::move(left2), std::move(hi)));
    }
    if (Accept("in")) {
      ORDOPT_RETURN_NOT_OK(Expect("("));
      if (Peek().IsKeyword("select")) {
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kInSubquery;
        e->arg = std::move(left);
        ORDOPT_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
        ORDOPT_RETURN_NOT_OK(Expect(")"));
        return e;
      }
      // Value list: desugar to an OR chain of equalities.
      std::unique_ptr<Expr> chain;
      do {
        ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> v, ParseAdditive());
        std::unique_ptr<Expr> eq = Expr::Binary(
            BinOp::kEq, CloneExpr(*left), std::move(v));
        chain = chain == nullptr
                    ? std::move(eq)
                    : Expr::Binary(BinOp::kOr, std::move(chain),
                                   std::move(eq));
      } while (Accept(","));
      ORDOPT_RETURN_NOT_OK(Expect(")"));
      return chain;
    }
    static const std::pair<const char*, BinOp> kOps[] = {
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"<>", BinOp::kNe},
        {"=", BinOp::kEq},  {"<", BinOp::kLt},  {">", BinOp::kGt},
    };
    for (const auto& [sym, op] : kOps) {
      if (Peek().IsSymbol(sym)) {
        Advance();
        ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAdditive());
        return Expr::Binary(op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  // Deep copy of a parsed expression (used by BETWEEN / IN desugaring).
  static std::unique_ptr<Expr> CloneExpr(const Expr& e) {
    auto out = std::make_unique<Expr>();
    out->kind = e.kind;
    out->qualifier = e.qualifier;
    out->column = e.column;
    out->literal = e.literal;
    out->slot = e.slot;
    out->op = e.op;
    out->agg = e.agg;
    out->count_star = e.count_star;
    out->agg_distinct = e.agg_distinct;
    out->is_null_negated = e.is_null_negated;
    if (e.left != nullptr) out->left = CloneExpr(*e.left);
    if (e.right != nullptr) out->right = CloneExpr(*e.right);
    if (e.arg != nullptr) out->arg = CloneExpr(*e.arg);
    return out;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseMultiplicative());
    while (true) {
      BinOp op;
      if (Peek().IsSymbol("+")) {
        op = BinOp::kAdd;
      } else if (Peek().IsSymbol("-")) {
        op = BinOp::kSub;
      } else {
        break;
      }
      Advance();
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right,
                              ParseMultiplicative());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseUnary());
    while (true) {
      BinOp op;
      if (Peek().IsSymbol("*")) {
        op = BinOp::kMul;
      } else if (Peek().IsSymbol("/")) {
        op = BinOp::kDiv;
      } else {
        break;
      }
      Advance();
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseUnary());
      left = Expr::Binary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseUnary());
      // Fold -literal (it keeps its token's slot), otherwise rewrite as
      // (0 - inner).
      if (inner->kind == Expr::Kind::kLiteral &&
          (inner->literal.type() == DataType::kInt64 ||
           inner->literal.type() == DataType::kDouble)) {
        inner->literal = inner->literal.type() == DataType::kInt64
                             ? Value::Int(-inner->literal.AsInt())
                             : Value::Double(-inner->literal.AsDouble());
        slot_values_[static_cast<size_t>(inner->slot)] = inner->literal;
        return inner;
      }
      return Expr::Binary(BinOp::kSub, Expr::Literal(Value::Int(0)),
                          std::move(inner));
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kInteger) {
      Advance();
      return SlotLiteral(Value::Int(std::stoll(t.text)));
    }
    if (t.kind == TokenKind::kFloat) {
      Advance();
      return SlotLiteral(Value::Double(std::stod(t.text)));
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return SlotLiteral(Value::Str(t.text));
    }
    if (t.IsSymbol("(")) {
      Advance();
      ORDOPT_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
      ORDOPT_RETURN_NOT_OK(Expect(")"));
      return inner;
    }
    if (t.IsKeyword("null")) {
      Advance();
      return Expr::Literal(Value::Null());
    }
    if (t.kind == TokenKind::kIdentifier) {
      // DATE literal: date 'YYYY-MM-DD' or date('YYYY-MM-DD').
      if (t.text == "date") {
        if (Peek(1).kind == TokenKind::kString) {
          Advance();
          const Token& lit = Advance();
          return ParseDateLiteral(lit);
        }
        if (Peek(1).IsSymbol("(") && Peek(2).kind == TokenKind::kString &&
            Peek(3).IsSymbol(")")) {
          Advance();
          Advance();
          const Token& lit = Advance();
          Advance();
          return ParseDateLiteral(lit);
        }
      }
      // Aggregate call.
      AggFunc agg;
      if (IsAggName(t.text, &agg) && Peek(1).IsSymbol("(")) {
        Advance();
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::kAggregate;
        e->agg = agg;
        if (Peek().IsSymbol("*")) {
          if (agg != AggFunc::kCount) {
            return Error("only count(*) may take '*'");
          }
          Advance();
          e->count_star = true;
        } else {
          if (Accept("distinct")) e->agg_distinct = true;
          ORDOPT_ASSIGN_OR_RETURN(e->arg, ParseExpr());
        }
        ORDOPT_RETURN_NOT_OK(Expect(")"));
        return e;
      }
      // Column reference.
      Advance();
      if (Peek().IsSymbol(".")) {
        Advance();
        if (Peek().kind != TokenKind::kIdentifier) {
          return Error("expected column name after '.'");
        }
        const Token& col = Advance();
        return Expr::Column(t.text, col.text);
      }
      return Expr::Column("", t.text);
    }
    return Error("expected expression");
  }

  Result<std::unique_ptr<Expr>> ParseDateLiteral(const Token& lit) {
    int64_t days = 0;
    if (!ParseDate(lit.text, &days)) {
      return Status::ParseError(
          StrFormat("malformed date literal '%s' at offset %zu",
                    lit.text.c_str(), lit.offset));
    }
    return SlotLiteral(Value::Date(days));
  }

  // A literal from one token of the text: it takes the next slot.
  std::unique_ptr<Expr> SlotLiteral(Value v) {
    slot_values_.push_back(v);
    return Expr::Literal(std::move(v),
                         static_cast<int>(slot_values_.size()) - 1);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<Value> slot_values_;
};

}  // namespace

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql) {
  ORDOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace ordopt
