#ifndef ORDOPT_PARSER_AST_H_
#define ORDOPT_PARSER_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "orderopt/order_spec.h"

namespace ordopt {

struct SelectStmt;

/// Binary operators in expressions and predicates.
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

/// Returns the SQL spelling ("+", "<=", "AND", ...).
const char* BinOpName(BinOp op);

/// Aggregate functions of the subset.
enum class AggFunc { kSum, kCount, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc f);

/// Unbound expression tree produced by the parser.
struct Expr {
  enum class Kind { kColumn, kLiteral, kBinary, kAggregate, kIsNull, kInSubquery };

  Kind kind = Kind::kLiteral;

  // kColumn: `qualifier.column` or bare `column`.
  std::string qualifier;
  std::string column;

  // kLiteral. `slot` numbers the literal tokens of the statement text in
  // order (the sequence ParameterizeQueryText strips); -1 for NULL and for
  // literals the parser synthesizes.
  Value literal;
  int slot = -1;

  // kBinary
  BinOp op = BinOp::kAdd;
  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;

  // kAggregate: agg(arg), count(*), agg(distinct arg)
  AggFunc agg = AggFunc::kSum;
  bool count_star = false;
  bool agg_distinct = false;
  std::unique_ptr<Expr> arg;

  // kIsNull: arg IS [NOT] NULL (uses `arg`)
  bool is_null_negated = false;

  // kInSubquery: arg IN (subquery). Bound as a semi-join against the
  // subquery made DISTINCT.
  std::unique_ptr<SelectStmt> subquery;

  Expr();
  ~Expr();

  static std::unique_ptr<Expr> Column(std::string qual, std::string col);
  static std::unique_ptr<Expr> Literal(Value v, int slot = -1);
  static std::unique_ptr<Expr> Binary(BinOp op, std::unique_ptr<Expr> l,
                                      std::unique_ptr<Expr> r);

  std::string ToString() const;
};

/// One FROM item: a base table (possibly aliased) or a parenthesized
/// derived table with a mandatory alias. `join` says how this item
/// attaches to everything before it in the FROM list: plain comma
/// (kNone, implicit inner join via WHERE), INNER JOIN ... ON, or
/// LEFT [OUTER] JOIN ... ON (this item is the null-supplying side).
struct TableRef {
  enum class JoinKind { kNone, kInner, kLeft };

  std::string table_name;  ///< empty for derived tables
  std::string alias;       ///< defaults to table_name
  std::unique_ptr<SelectStmt> derived;
  JoinKind join = JoinKind::kNone;
  std::unique_ptr<Expr> on;  ///< required for kInner/kLeft
};

/// One SELECT-list item.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  ///< empty when none; '*' expansion handled in binder
  bool star = false;  ///< bare `*`
};

/// One ORDER BY item.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  SortDirection dir = SortDirection::kAscending;
};

/// A parsed SELECT statement of the supported subset:
///   SELECT [DISTINCT] items FROM refs [WHERE conj] [GROUP BY exprs]
///   [HAVING conj] [ORDER BY items]
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;  ///< null when absent; AND tree otherwise
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;  ///< null when absent
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  ///< -1 = no LIMIT (the count is not a slot)

  /// Root statement only: the value of every slotted literal, by slot. A
  /// folded `-5` holds -5 and a `date('...')` holds the date.
  std::vector<Value> slot_values;

  /// UNION chaining: this block UNION [ALL] `union_next`. Only the last
  /// block of a chain may carry ORDER BY / LIMIT, which then apply to the
  /// whole union.
  std::unique_ptr<SelectStmt> union_next;
  bool union_all = false;  ///< kind of the link to union_next

  std::string ToString() const;
};

}  // namespace ordopt

#endif  // ORDOPT_PARSER_AST_H_
