#ifndef ORDOPT_EXEC_EXPR_EVAL_H_
#define ORDOPT_EXEC_EXPR_EVAL_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/column_id.h"
#include "common/value.h"
#include "exec/row_batch.h"
#include "qgm/predicate.h"

namespace ordopt {

class QueryGuard;

/// Maps a stream's row layout (a ColumnId per position) to positions and
/// evaluates bound expressions against rows of that layout.
///
/// SQL three-valued logic is folded to two: a NULL comparison result is
/// "not satisfied", matching WHERE semantics.
///
/// When constructed with a guard, a reference to a column missing from the
/// layout (a planner bug) poisons the guard and evaluates to NULL instead
/// of aborting the process; so does int64 arithmetic that overflows, with
/// an OutOfRange status.
class ExprEvaluator {
 public:
  explicit ExprEvaluator(const std::vector<ColumnId>& layout,
                         QueryGuard* guard = nullptr);

  /// Position of `col` in the layout; -1 when absent.
  int PositionOf(const ColumnId& col) const;

  /// Evaluates `expr` for row `row` of `batch` without materializing a Row.
  Value EvalAt(const BoundExpr& expr, const RowBatch& batch,
               int64_t row) const;

  /// Batch predicate evaluation: filters `sel` in place, keeping only the
  /// rows for which `pred` is satisfied (non-NULL, non-zero). The classified
  /// col-vs-const and col-vs-col shapes take a branch-light fast path over
  /// the column vector + null bitmap; kGeneric falls back to EvalAt. A NULL
  /// comparison result never survives (two-valued folding).
  void FilterBatch(const Predicate& pred, const RowBatch& batch,
                   SelectionVector* sel) const;

  /// Evaluates `expr` over every row of `batch`, appending the results to
  /// column `out_col` of `out` (which must already be Reset to the output
  /// width). Plain column references copy the input column; literals
  /// replicate; everything else evaluates row-at-a-time via EvalAt.
  void EvalColumn(const BoundExpr& expr, const RowBatch& batch, RowBatch* out,
                  size_t out_col) const;

 private:
  std::unordered_map<ColumnId, int, ColumnIdHash> positions_;
  QueryGuard* guard_ = nullptr;
};

/// Arithmetic/comparison on two Values with NULL propagation. nullopt when
/// an int64 +, - or * overflows; the evaluator turns that into an
/// OutOfRange error.
std::optional<Value> EvalBinary(BinOp op, const Value& l, const Value& r);

}  // namespace ordopt

#endif  // ORDOPT_EXEC_EXPR_EVAL_H_
