#ifndef ORDOPT_PARSER_PARSER_H_
#define ORDOPT_PARSER_PARSER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "parser/ast.h"

namespace ordopt {

/// Parses one SELECT statement of the supported SQL subset:
///
///   SELECT [DISTINCT] expr [AS alias], ...
///   FROM table [alias] | (subselect) alias, ...
///   [WHERE conjunct AND conjunct ...]
///   [GROUP BY expr, ...]
///   [ORDER BY expr [ASC|DESC], ...]
///
/// Expressions support column references (optionally qualified), integer /
/// decimal / string literals, DATE '...' literals and date('...') calls,
/// +,-,*,/ arithmetic, =,<>,<,<=,>,>= comparisons, AND, and the aggregates
/// sum/count/min/max/avg (with count(*) and agg(distinct x)).
Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql);

/// The plan-cache key of `sql`: its tokens joined by one space, with every
/// literal that takes a parser slot (Expr::slot) spelled `?`. Spellings that
/// differ only in spacing, case, `--` comments, `!=` for `<>` or literal
/// values share one key, so a literal-varying workload collapses onto one
/// key per query template; the LIMIT count takes no slot and stays. Text
/// the tokenizer rejects keys as itself behind a `!`, which no valid key
/// starts with (ParseSelect fails it).
std::string ParameterizeQueryText(const std::string& sql);

}  // namespace ordopt

#endif  // ORDOPT_PARSER_PARSER_H_
