// Tokenizer and SQL-subset parser tests.

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "parser/token.h"

namespace ordopt {
namespace {

TEST(Tokenizer, BasicKinds) {
  auto toks = Tokenize("select x, 42, 3.14, 'it''s' <> <= FROM");
  ASSERT_TRUE(toks.ok());
  const auto& t = toks.value();
  EXPECT_EQ(t[0].text, "select");
  EXPECT_EQ(t[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[1].text, "x");
  EXPECT_TRUE(t[2].IsSymbol(","));
  EXPECT_EQ(t[3].kind, TokenKind::kInteger);
  EXPECT_EQ(t[3].text, "42");
  EXPECT_EQ(t[5].kind, TokenKind::kFloat);
  EXPECT_EQ(t[7].kind, TokenKind::kString);
  EXPECT_EQ(t[7].text, "it's");
  EXPECT_TRUE(t[8].IsSymbol("<>"));
  EXPECT_TRUE(t[9].IsSymbol("<="));
  EXPECT_EQ(t[10].text, "from");  // lowercased
  EXPECT_EQ(t.back().kind, TokenKind::kEndOfInput);
}

TEST(Tokenizer, Comments) {
  auto toks = Tokenize("select x -- comment here\nfrom t");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[2].text, "from");
}

TEST(Tokenizer, Errors) {
  EXPECT_FALSE(Tokenize("select 'unterminated").ok());
  EXPECT_FALSE(Tokenize("select @x").ok());
}

TEST(Parser, MinimalSelect) {
  auto stmt = ParseSelect("select x from t");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt.value();
  EXPECT_FALSE(s.distinct);
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_EQ(s.items[0].expr->column, "x");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table_name, "t");
  EXPECT_EQ(s.from[0].alias, "t");
}

TEST(Parser, FullClauseRoundTrip) {
  const char* sql =
      "select a.x, sum(b.y * 2) as total from ta a, tb as b "
      "where a.x = b.x and a.y > 5 group by a.x "
      "order by total desc, a.x";
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt.value();
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "total");
  EXPECT_EQ(s.from[0].alias, "a");
  EXPECT_EQ(s.from[1].alias, "b");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->op, BinOp::kAnd);
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_EQ(s.order_by[0].dir, SortDirection::kDescending);
  EXPECT_EQ(s.order_by[1].dir, SortDirection::kAscending);
}

TEST(Parser, StarAndDistinct) {
  auto stmt = ParseSelect("select distinct * from t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt.value()->distinct);
  EXPECT_TRUE(stmt.value()->items[0].star);
}

TEST(Parser, DateLiterals) {
  auto s1 = ParseSelect("select x from t where d < date '1995-03-15'");
  ASSERT_TRUE(s1.ok());
  auto s2 = ParseSelect("select x from t where d < date('1995-03-15')");
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1.value()->where->right->literal.type(), DataType::kDate);
  EXPECT_EQ(s2.value()->where->right->literal.type(), DataType::kDate);
  EXPECT_FALSE(ParseSelect("select x from t where d < date('13-13-13')").ok());
}

TEST(Parser, Aggregates) {
  auto stmt = ParseSelect(
      "select count(*), sum(distinct x), min(y), max(y), avg(y) from t");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt.value();
  EXPECT_TRUE(s.items[0].expr->count_star);
  EXPECT_TRUE(s.items[1].expr->agg_distinct);
  EXPECT_EQ(s.items[2].expr->agg, AggFunc::kMin);
  EXPECT_FALSE(ParseSelect("select sum(*) from t").ok());
}

TEST(Parser, ArithmeticPrecedence) {
  auto stmt = ParseSelect("select a + b * c from t");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *stmt.value()->items[0].expr;
  EXPECT_EQ(e.op, BinOp::kAdd);
  EXPECT_EQ(e.right->op, BinOp::kMul);
}

TEST(Parser, UnaryMinusFolded) {
  auto stmt = ParseSelect("select x from t where x > -5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value()->where->right->literal.AsInt(), -5);
}

// Every literal token takes the next slot, in text order, subqueries
// included; a folded -5 and a date keep their token's slot, while NULL,
// the synthesized 0 of (0 - x) and the LIMIT count take none.
TEST(Parser, LiteralSlots) {
  auto stmt = ParseSelect(
      "select -5, x + 1 from t where d < date('1995-03-15') and y = null "
      "and z in (select z from u where w > 2.5) and v > -(x) "
      "and s = 'a' limit 7");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt.value();
  ASSERT_EQ(s.slot_values.size(), 5u);
  EXPECT_EQ(s.slot_values[0].AsInt(), -5);
  EXPECT_EQ(s.slot_values[1].AsInt(), 1);
  EXPECT_EQ(s.slot_values[2].type(), DataType::kDate);
  EXPECT_EQ(s.slot_values[3].AsDouble(), 2.5);
  EXPECT_EQ(s.slot_values[4].AsString(), "a");
  EXPECT_EQ(s.items[0].expr->slot, 0);
  EXPECT_EQ(s.items[1].expr->right->slot, 1);
  EXPECT_EQ(s.limit, 7);
  // BETWEEN and IN lists clone their left side, literals and slots alike.
  auto between = ParseSelect("select x from t where x + 3 between 1 and 9");
  ASSERT_TRUE(between.ok());
  const Expr& w = *between.value()->where;
  EXPECT_EQ(w.left->left->right->slot, 0);
  EXPECT_EQ(w.right->left->right->slot, 0);
  EXPECT_EQ(w.right->right->slot, 2);
  EXPECT_EQ(between.value()->slot_values.size(), 3u);
}

TEST(Parser, DerivedTable) {
  auto stmt =
      ParseSelect("select d.x from (select x from t where x > 1) d");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt.value()->from[0].derived, nullptr);
  EXPECT_EQ(stmt.value()->from[0].alias, "d");
  // Alias is mandatory.
  EXPECT_FALSE(ParseSelect("select x from (select x from t)").ok());
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("select").ok());
  EXPECT_FALSE(ParseSelect("select x").ok());             // missing FROM
  EXPECT_FALSE(ParseSelect("select x from t extra junk +").ok());
  EXPECT_FALSE(ParseSelect("select x from t where").ok());
  EXPECT_FALSE(ParseSelect("select x from t group x").ok());  // missing BY
  EXPECT_FALSE(ParseSelect("select from t").ok());
}

// Numeric literals that do not fit their type are parse errors, not a
// process abort; INT64_MAX itself is still a literal.
TEST(Parser, OutOfRangeNumbersAreErrors) {
  const std::string huge_float =
      "select 1" + std::string(400, '0') + ".0 from t";
  for (const std::string& sql :
       {std::string("select 9223372036854775808 from t"),
        std::string("select x from t limit 99999999999999999999"),
        huge_float}) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(ParseSelect(sql).status().code(), StatusCode::kParseError);
  }
  EXPECT_TRUE(ParseSelect("select 9223372036854775807 from t").ok());
  EXPECT_TRUE(ParseSelect("select -9223372036854775807 from t").ok());
}

TEST(Parser, ToStringRoundTrip) {
  const char* sql =
      "select a.x as k, sum(b.y) from ta a, tb b where a.x = b.x "
      "group by a.x order by k desc";
  auto first = ParseSelect(sql);
  ASSERT_TRUE(first.ok());
  std::string rendered = first.value()->ToString();
  auto second = ParseSelect(rendered);
  ASSERT_TRUE(second.ok()) << rendered << " -> "
                           << second.status().ToString();
  EXPECT_EQ(second.value()->ToString(), rendered);
}

}  // namespace
}  // namespace ordopt
