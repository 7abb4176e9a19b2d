#ifndef ORDOPT_QGM_QGM_H_
#define ORDOPT_QGM_QGM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/column_id.h"
#include "qgm/bound_expr.h"
#include "qgm/predicate.h"
#include "storage/table.h"

namespace ordopt {

struct QgmBox;

/// A table reference inside a box (the paper's quantifier, §3): either a
/// base table or another box (derived table / view). Base-table quantifiers
/// own a table-instance id: column `c` of this instance is
/// ColumnId{id, ordinal(c)}. Quantifiers over boxes introduce no ids of
/// their own — the child box's output ColumnIds are referenced directly,
/// so a pass-through column keeps one identity through the whole query.
struct Quantifier {
  int id = -1;  ///< table-instance id; -1 for quantifiers over boxes
  std::string alias;
  const Table* table = nullptr;  ///< base table, or
  QgmBox* input = nullptr;       ///< child box (exactly one of the two)

  bool IsBase() const { return table != nullptr; }
};

/// One LEFT OUTER JOIN step of a SELECT box: the null-supplying quantifier
/// plus its ON conjuncts. Steps apply in syntax order on top of the box's
/// inner-join block. Per §4.1, an equality ON predicate `p = n` (p from
/// the preserved side, n null-supplying) contributes only the one-way FD
/// {p} -> {n}, never an equivalence class.
struct OuterJoinStep {
  Quantifier quantifier;
  std::vector<Predicate> on_predicates;
};

/// One output column of a box. Pass-through outputs (expr is a bare column)
/// reuse the inner ColumnId; computed outputs get {box.vid, ordinal}.
struct OutputColumn {
  BoundExpr expr;
  std::string name;
  ColumnId id;
};

/// One aggregate computed by a GROUP BY box.
struct AggregateSpec {
  AggFunc func = AggFunc::kSum;
  bool distinct = false;
  bool count_star = false;
  BoundExpr arg;  ///< ignored for count(*)
  ColumnId output;
  std::string name;
};

/// Where a physical aggregation runs relative to a parallel exchange: the
/// whole aggregation, the per-worker partial below the exchange, or the
/// final merge of the partial states above it (DESIGN.md §15).
enum class AggPhase { kComplete, kPartial, kFinal };

/// A QGM box: SELECT (join + predicates + projection + optional DISTINCT
/// and output order requirement), GROUP BY, or UNION (§3: "the basic set
/// of boxes include those for SELECT, GROUP BY, and UNION"). ORDER BY is
/// represented as the output order requirement of a box; GROUP BY's need
/// for an ordered input is its *input order requirement*, which stays a
/// degree-of-freedom (general) order so hash-based grouping remains an
/// alternative. A UNION box's quantifiers are its branches; `distinct`
/// distinguishes UNION from UNION ALL, and its outputs are fresh columns
/// (values mix across branches, so no pass-through identity).
struct QgmBox {
  enum class Kind { kSelect, kGroupBy, kUnion };

  Kind kind = Kind::kSelect;
  int vid = -1;  ///< virtual table id for computed outputs

  // kSelect.
  std::vector<Quantifier> quantifiers;
  std::vector<Predicate> predicates;
  /// LEFT OUTER JOIN steps applied (in order) after the inner-join block.
  std::vector<OuterJoinStep> outer_joins;
  bool distinct = false;
  /// ORDER BY of this box (empty unless this is a top box with ORDER BY).
  OrderSpec output_order_requirement;
  /// LIMIT of this box; -1 = none. Applies after ordering.
  int64_t limit = -1;

  // kGroupBy (quantifiers.size() == 1).
  std::vector<ColumnId> group_columns;
  std::vector<AggregateSpec> aggregates;

  std::vector<OutputColumn> outputs;

  /// All output ColumnIds.
  ColumnSet OutputColumns() const;

  /// Finds the output ordinal producing `id`; -1 when absent.
  int FindOutput(const ColumnId& id) const;
};

/// A bound query: the box tree plus naming/typing metadata for every
/// ColumnId minted during binding.
struct Query {
  QgmBox* root = nullptr;
  std::vector<std::unique_ptr<QgmBox>> boxes;

  /// Display name ("o.orderdate", "rev") per ColumnId.
  std::unordered_map<ColumnId, std::string, ColumnIdHash> column_names;
  /// Type per ColumnId.
  std::unordered_map<ColumnId, DataType, ColumnIdHash> column_types;
  /// Base table per table-instance id (for access-path selection).
  std::unordered_map<int, const Table*> base_tables;

  int next_table_id = 0;

  QgmBox* NewBox(QgmBox::Kind kind);
  int AllocTableId() { return next_table_id++; }

  ColumnNamer namer() const;
  DataType TypeOf(const ColumnId& id) const;

  /// Multi-line rendering of the box tree (diagnostics, Figure-1-style).
  std::string ToString() const;
};

}  // namespace ordopt

#endif  // ORDOPT_QGM_QGM_H_
