#include "qgm/binder.h"

#include <algorithm>

#include "common/str_util.h"

namespace ordopt {

namespace {

/// One name visible in a scope.
struct ScopeColumn {
  std::string name;  // lowercase
  ColumnId id;
  DataType type;
};

/// The columns contributed by one quantifier.
struct ScopeEntry {
  std::string alias;  // lowercase
  std::vector<ScopeColumn> cols;
};

using Scope = std::vector<ScopeEntry>;

DataType ArithmeticType(BinOp op, DataType l, DataType r) {
  if (op == BinOp::kDiv) return DataType::kDouble;
  if (l == DataType::kDouble || r == DataType::kDouble) {
    return DataType::kDouble;
  }
  return DataType::kInt64;
}

bool IsComparisonOp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kAnd:
    case BinOp::kOr:
      return true;
    default:
      return false;
  }
}

class Binder {
 public:
  explicit Binder(const Database& db) : db_(db) {
    query_ = std::make_unique<Query>();
  }

  Result<std::unique_ptr<Query>> Bind(const SelectStmt& stmt) {
    ORDOPT_ASSIGN_OR_RETURN(QgmBox * root, BindStatement(stmt));
    query_->root = root;
    return std::move(query_);
  }

 private:
  // ---- scope construction -------------------------------------------------

  // Builds the quantifier for one FROM item; `q_out` receives it, the
  // return value describes the names it contributes to the scope.
  Result<ScopeEntry> MakeQuantifier(const TableRef& ref, Quantifier* q_out) {
    ScopeEntry entry;
    entry.alias = ToLower(ref.alias);
    Quantifier q;
    q.alias = entry.alias;
    if (ref.derived != nullptr) {
      ORDOPT_ASSIGN_OR_RETURN(QgmBox * child, BindStatement(*ref.derived));
      q.input = child;
      for (const OutputColumn& oc : child->outputs) {
        entry.cols.push_back(
            {ToLower(oc.name), oc.id, query_->TypeOf(oc.id)});
      }
    } else {
      const Table* table = db_.GetTable(ref.table_name);
      if (table == nullptr) {
        return Status::NotFound("table '" + ref.table_name + "' not found");
      }
      q.id = query_->AllocTableId();
      q.table = table;
      query_->base_tables[q.id] = table;
      const TableDef& def = table->def();
      for (size_t i = 0; i < def.columns.size(); ++i) {
        ColumnId id(q.id, static_cast<int32_t>(i));
        std::string lname = ToLower(def.columns[i].name);
        entry.cols.push_back({lname, id, def.columns[i].type});
        query_->column_names[id] = entry.alias + "." + lname;
        query_->column_types[id] = def.columns[i].type;
      }
    }
    *q_out = std::move(q);
    return entry;
  }

  // True when the expression cannot be satisfied by a row whose referenced
  // columns are all NULL: comparisons/arithmetic propagate NULL and AND
  // folds it to false. IS NULL and OR can accept NULL inputs, so any
  // appearance makes the answer conservatively false.
  static bool IsNullRejecting(const BoundExpr& e) {
    switch (e.kind()) {
      case BoundExpr::Kind::kIsNull:
        // `x IS NOT NULL` rejects; `x IS NULL` selects padded rows.
        return e.is_null_negated();
      case BoundExpr::Kind::kBinary:
        if (e.op() == BinOp::kOr) return false;
        return IsNullRejecting(e.left()) && IsNullRejecting(e.right());
      default:
        return true;
    }
  }

  // The table-instance ids a quantifier's columns use (for deciding which
  // quantifier a predicate touches).
  ColumnSet QuantifierColumns(const Quantifier& q) const {
    ColumnSet cols;
    if (q.IsBase()) {
      for (size_t i = 0; i < q.table->def().columns.size(); ++i) {
        cols.Add(ColumnId(q.id, static_cast<int32_t>(i)));
      }
    } else {
      cols = q.input->OutputColumns();
    }
    return cols;
  }

  Result<ScopeColumn> ResolveColumn(const Scope& scope,
                                    const std::string& qualifier,
                                    const std::string& name) const {
    std::string lq = ToLower(qualifier);
    std::string ln = ToLower(name);
    const ScopeColumn* found = nullptr;
    for (const ScopeEntry& entry : scope) {
      if (!lq.empty() && entry.alias != lq) continue;
      for (const ScopeColumn& col : entry.cols) {
        if (col.name == ln) {
          if (found != nullptr) {
            return Status::BindError("ambiguous column '" + name + "'");
          }
          found = &col;
        }
      }
    }
    if (found == nullptr) {
      std::string full = lq.empty() ? ln : lq + "." + ln;
      return Status::BindError("column '" + full + "' not found");
    }
    return *found;
  }

  // ---- scalar binding (no aggregates allowed) -----------------------------

  Result<BoundExpr> BindScalar(const Expr& expr, const Scope& scope) {
    switch (expr.kind) {
      case Expr::Kind::kColumn: {
        ORDOPT_ASSIGN_OR_RETURN(
            ScopeColumn col, ResolveColumn(scope, expr.qualifier, expr.column));
        std::string display = query_->column_names.count(col.id) > 0
                                  ? query_->column_names[col.id]
                                  : col.name;
        return BoundExpr::Column(col.id, col.type, display);
      }
      case Expr::Kind::kLiteral:
        return BoundExpr::Literal(expr.literal, expr.slot);
      case Expr::Kind::kBinary: {
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr l, BindScalar(*expr.left, scope));
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr r, BindScalar(*expr.right, scope));
        DataType type = IsComparisonOp(expr.op)
                            ? DataType::kInt64
                            : ArithmeticType(expr.op, l.type(), r.type());
        return BoundExpr::Binary(expr.op, std::move(l), std::move(r), type);
      }
      case Expr::Kind::kIsNull: {
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr child,
                                BindScalar(*expr.arg, scope));
        return BoundExpr::IsNull(std::move(child), expr.is_null_negated);
      }
      case Expr::Kind::kAggregate:
        return Status::BindError("aggregate not allowed here: " +
                                 expr.ToString());
      case Expr::Kind::kInSubquery:
        return Status::Unsupported(
            "IN (subquery) is only supported as a top-level WHERE "
            "conjunct: " +
            expr.ToString());
    }
    return Status::Internal("unreachable expression kind");
  }

  // ---- grouped binding -----------------------------------------------------

  struct GroupScope {
    const Scope* base_scope = nullptr;
    ColumnSet group_columns;
    QgmBox* group_box = nullptr;
  };

  // Finds or creates the AggregateSpec for a bound aggregate expression.
  Result<ColumnId> BindAggregate(const Expr& expr, const GroupScope& gs) {
    AggregateSpec spec;
    spec.func = expr.agg;
    spec.distinct = expr.agg_distinct;
    spec.count_star = expr.count_star;
    if (!expr.count_star) {
      ORDOPT_ASSIGN_OR_RETURN(spec.arg,
                              BindScalar(*expr.arg, *gs.base_scope));
    }
    spec.name = expr.ToString();
    QgmBox* g = gs.group_box;
    // Reuse an existing identical aggregate.
    for (const AggregateSpec& existing : g->aggregates) {
      if (existing.func == spec.func && existing.distinct == spec.distinct &&
          existing.count_star == spec.count_star &&
          (spec.count_star || existing.arg.Equals(spec.arg))) {
        return existing.output;
      }
    }
    int ordinal =
        static_cast<int>(g->group_columns.size() + g->aggregates.size());
    spec.output = ColumnId(g->vid, ordinal);
    DataType out_type = DataType::kDouble;
    if (spec.func == AggFunc::kCount) {
      out_type = DataType::kInt64;
    } else if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
      out_type = spec.arg.type();
    } else if (spec.func == AggFunc::kSum) {
      out_type = spec.arg.type() == DataType::kInt64 ? DataType::kInt64
                                                     : DataType::kDouble;
    }
    query_->column_names[spec.output] = spec.name;
    query_->column_types[spec.output] = out_type;
    ColumnId out = spec.output;
    g->aggregates.push_back(std::move(spec));
    return out;
  }

  // Binds an expression in grouped scope: aggregates become references to
  // GROUP BY box outputs; plain columns must be grouping columns.
  Result<BoundExpr> BindGrouped(const Expr& expr, const GroupScope& gs) {
    switch (expr.kind) {
      case Expr::Kind::kAggregate: {
        ORDOPT_ASSIGN_OR_RETURN(ColumnId out, BindAggregate(expr, gs));
        return BoundExpr::Column(out, query_->TypeOf(out),
                                 query_->column_names[out]);
      }
      case Expr::Kind::kColumn: {
        ORDOPT_ASSIGN_OR_RETURN(
            ScopeColumn col,
            ResolveColumn(*gs.base_scope, expr.qualifier, expr.column));
        if (!gs.group_columns.Contains(col.id)) {
          return Status::BindError("column '" + expr.ToString() +
                                   "' must appear in GROUP BY or inside an "
                                   "aggregate");
        }
        return BoundExpr::Column(col.id, col.type,
                                 query_->column_names.count(col.id) > 0
                                     ? query_->column_names[col.id]
                                     : col.name);
      }
      case Expr::Kind::kLiteral:
        return BoundExpr::Literal(expr.literal, expr.slot);
      case Expr::Kind::kBinary: {
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr l, BindGrouped(*expr.left, gs));
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr r, BindGrouped(*expr.right, gs));
        DataType type = IsComparisonOp(expr.op)
                            ? DataType::kInt64
                            : ArithmeticType(expr.op, l.type(), r.type());
        return BoundExpr::Binary(expr.op, std::move(l), std::move(r), type);
      }
      case Expr::Kind::kIsNull: {
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr child,
                                BindGrouped(*expr.arg, gs));
        return BoundExpr::IsNull(std::move(child), expr.is_null_negated);
      }
      case Expr::Kind::kInSubquery:
        return Status::Unsupported(
            "IN (subquery) is only supported as a top-level WHERE "
            "conjunct");
    }
    return Status::Internal("unreachable expression kind");
  }

  // ---- helpers -------------------------------------------------------------

  static bool HasAggregate(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kAggregate:
        return true;
      case Expr::Kind::kBinary:
        return HasAggregate(*expr.left) || HasAggregate(*expr.right);
      case Expr::Kind::kIsNull:
        return HasAggregate(*expr.arg);
      default:
        return false;
    }
  }

  // Rewrites `lhs IN (subquery)` into a semi-join: a quantifier over the
  // subquery with DISTINCT forced on its top box, plus the equality
  // predicate lhs = subquery-output. Classic uncorrelated-IN unnesting.
  Status BindInSubquery(const Expr& expr, QgmBox* select_box, Scope* scope) {
    ORDOPT_ASSIGN_OR_RETURN(BoundExpr lhs, BindScalar(*expr.arg, *scope));
    if (!lhs.IsColumn()) {
      return Status::Unsupported(
          "the left side of IN (subquery) must be a column");
    }
    ORDOPT_ASSIGN_OR_RETURN(QgmBox * sub, BindStatement(*expr.subquery));
    if (sub->outputs.size() != 1) {
      return Status::BindError("IN subquery must produce exactly one column");
    }
    sub->distinct = true;  // semi-join: one match per value
    Quantifier q;
    q.alias = StrFormat("$in%d", sub->vid);
    q.input = sub;
    select_box->quantifiers.push_back(std::move(q));
    ColumnId rhs = sub->outputs[0].id;
    BoundExpr cmp = BoundExpr::Binary(
        BinOp::kEq, std::move(lhs),
        BoundExpr::Column(rhs, query_->TypeOf(rhs), sub->outputs[0].name),
        DataType::kInt64);
    select_box->predicates.push_back(ClassifyPredicate(std::move(cmp)));
    return Status::OK();
  }

  // Splits an AND tree into conjuncts.
  static void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
    if (expr.kind == Expr::Kind::kBinary && expr.op == BinOp::kAnd) {
      SplitConjuncts(*expr.left, out);
      SplitConjuncts(*expr.right, out);
    } else {
      out->push_back(&expr);
    }
  }

  // Adds `expr` as an output of `box`, minting a computed ColumnId when the
  // expression is not a bare column.
  void AddOutput(QgmBox* box, BoundExpr expr, const std::string& name) {
    OutputColumn oc;
    oc.name = name;
    if (expr.IsColumn()) {
      oc.id = expr.column();
    } else {
      oc.id = ColumnId(box->vid, static_cast<int32_t>(box->outputs.size()));
      query_->column_names[oc.id] = name;
      query_->column_types[oc.id] = expr.type();
    }
    oc.expr = std::move(expr);
    box->outputs.push_back(std::move(oc));
  }

  // Default display name for a select item.
  static std::string ItemName(const SelectItem& item, size_t index) {
    if (!item.alias.empty()) return ToLower(item.alias);
    if (item.expr->kind == Expr::Kind::kColumn) {
      return ToLower(item.expr->column);
    }
    return StrFormat("col%zu", index + 1);
  }

  // Binds one ORDER BY item: select-item aliases win, then structural match
  // against select items, then plain scope resolution. The result must be a
  // bare column (possibly a computed output's ColumnId).
  Result<OrderElement> BindOrderItem(
      const OrderItem& item, const std::vector<SelectItem>& items,
      const QgmBox* box,
      const std::function<Result<BoundExpr>(const Expr&)>& bind) {
    // Item index i maps to output i only when no '*' expanded the list.
    bool aligned = items.size() == box->outputs.size();
    // Alias reference?
    if (aligned && item.expr->kind == Expr::Kind::kColumn &&
        item.expr->qualifier.empty() && !item.expr->column.empty()) {
      std::string lname = ToLower(item.expr->column);
      for (size_t i = 0; i < items.size(); ++i) {
        if (!items[i].star && ToLower(items[i].alias) == lname) {
          return OrderElement(box->outputs[i].id, item.dir);
        }
      }
    }
    ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, bind(*item.expr));
    if (bound.IsColumn()) return OrderElement(bound.column(), item.dir);
    // Structural match against a computed select item.
    for (const OutputColumn& oc : box->outputs) {
      if (oc.expr.Equals(bound)) return OrderElement(oc.id, item.dir);
    }
    return Status::Unsupported(
        "ORDER BY expression must be a column, select alias, or select "
        "item: " +
        item.expr->ToString());
  }

  // ---- the main per-block binding ------------------------------------------

  // Dispatches between a single SELECT block and a UNION chain.
  Result<QgmBox*> BindStatement(const SelectStmt& stmt) {
    if (stmt.union_next != nullptr) return BindUnion(stmt);
    return BindSelect(stmt);
  }

  // Binds a UNION chain: one branch box per block (the last block's ORDER
  // BY / LIMIT are stripped from the branch and applied to the union box),
  // fresh output columns, arity/type checks, distinct when any link is a
  // plain UNION.
  Result<QgmBox*> BindUnion(const SelectStmt& first) {
    std::vector<const SelectStmt*> blocks;
    bool all_links_all = true;
    for (const SelectStmt* b = &first; b != nullptr;
         b = b->union_next.get()) {
      blocks.push_back(b);
      if (b->union_next != nullptr && !b->union_all) all_links_all = false;
    }
    const SelectStmt* last = blocks.back();

    QgmBox* union_box = query_->NewBox(QgmBox::Kind::kUnion);
    union_box->distinct = !all_links_all;
    for (const SelectStmt* b : blocks) {
      ORDOPT_ASSIGN_OR_RETURN(QgmBox * branch,
                              BindSelect(*b, /*strip_tail=*/b == last));
      Quantifier q;
      q.input = branch;
      union_box->quantifiers.push_back(std::move(q));
    }

    // Arity check and fresh outputs named/typed after the first branch.
    const QgmBox* head = union_box->quantifiers[0].input;
    for (const Quantifier& q : union_box->quantifiers) {
      if (q.input->outputs.size() != head->outputs.size()) {
        return Status::BindError(
            "UNION branches have different column counts");
      }
    }
    for (size_t i = 0; i < head->outputs.size(); ++i) {
      OutputColumn oc;
      oc.name = head->outputs[i].name;
      oc.id = ColumnId(union_box->vid, static_cast<int32_t>(i));
      DataType type = query_->TypeOf(head->outputs[i].id);
      oc.expr = BoundExpr::Column(oc.id, type, oc.name);
      query_->column_names[oc.id] = oc.name;
      query_->column_types[oc.id] = type;
      union_box->outputs.push_back(std::move(oc));
    }

    // The last block's ORDER BY / LIMIT apply to the union: resolve ORDER
    // BY items against the union's output names.
    for (const OrderItem& item : last->order_by) {
      if (item.expr->kind != Expr::Kind::kColumn ||
          !item.expr->qualifier.empty()) {
        return Status::Unsupported(
            "ORDER BY on a UNION must name an output column");
      }
      std::string lname = ToLower(item.expr->column);
      int found = -1;
      for (size_t i = 0; i < union_box->outputs.size(); ++i) {
        if (ToLower(union_box->outputs[i].name) == lname) {
          found = static_cast<int>(i);
        }
      }
      if (found < 0) {
        return Status::BindError("ORDER BY column '" + lname +
                                 "' is not a UNION output");
      }
      union_box->output_order_requirement.Append(OrderElement(
          union_box->outputs[static_cast<size_t>(found)].id, item.dir));
    }
    union_box->limit = last->limit;
    return union_box;
  }

  Result<QgmBox*> BindSelect(const SelectStmt& stmt,
                             bool strip_tail = false) {
    QgmBox* select_box = query_->NewBox(QgmBox::Kind::kSelect);
    Scope scope;
    if (stmt.from.empty()) {
      return Status::Unsupported("FROM clause is required");
    }
    for (const TableRef& ref : stmt.from) {
      Quantifier q;
      ORDOPT_ASSIGN_OR_RETURN(ScopeEntry entry, MakeQuantifier(ref, &q));
      for (const ScopeEntry& existing : scope) {
        if (existing.alias == entry.alias) {
          return Status::BindError("duplicate table alias '" + entry.alias +
                                   "'");
        }
      }
      scope.push_back(std::move(entry));
      if (ref.join == TableRef::JoinKind::kLeft) {
        OuterJoinStep step;
        step.quantifier = std::move(q);
        select_box->outer_joins.push_back(std::move(step));
      } else {
        select_box->quantifiers.push_back(std::move(q));
      }
      if (ref.on != nullptr) {
        // ON binds against everything joined so far (including this item).
        std::vector<const Expr*> conjuncts;
        SplitConjuncts(*ref.on, &conjuncts);
        for (const Expr* c : conjuncts) {
          ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
          Predicate pred = ClassifyPredicate(std::move(bound));
          if (ref.join == TableRef::JoinKind::kLeft) {
            select_box->outer_joins.back().on_predicates.push_back(
                std::move(pred));
          } else {
            select_box->predicates.push_back(std::move(pred));
          }
        }
      }
    }

    if (stmt.where != nullptr) {
      std::vector<const Expr*> conjuncts;
      SplitConjuncts(*stmt.where, &conjuncts);
      for (const Expr* c : conjuncts) {
        if (c->kind == Expr::Kind::kInSubquery) {
          ORDOPT_RETURN_NOT_OK(BindInSubquery(*c, select_box, &scope));
          continue;
        }
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*c, scope));
        select_box->predicates.push_back(ClassifyPredicate(std::move(bound)));
      }
    }

    // Outer-join simplification: a null-rejecting WHERE conjunct touching
    // a null-supplying side turns that LEFT JOIN into an inner join.
    // Comparisons, arithmetic, and AND all fold NULL to "not satisfied",
    // so they reject; IS NULL selects the padded rows (the anti-join
    // pattern) and OR may pass them — both block the conversion. Iterate
    // to a fixpoint (a converted join's ON predicates join the WHERE pool
    // and may convert further joins).
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < select_box->outer_joins.size(); ++i) {
        ColumnSet null_side =
            QuantifierColumns(select_box->outer_joins[i].quantifier);
        bool rejected = false;
        for (const Predicate& p : select_box->predicates) {
          if (p.referenced.Intersect(null_side).empty()) continue;
          if (IsNullRejecting(p.expr)) rejected = true;
        }
        if (!rejected) continue;
        OuterJoinStep step = std::move(select_box->outer_joins[i]);
        select_box->outer_joins.erase(select_box->outer_joins.begin() +
                                      static_cast<long>(i));
        select_box->quantifiers.push_back(std::move(step.quantifier));
        for (Predicate& p : step.on_predicates) {
          select_box->predicates.push_back(std::move(p));
        }
        changed = true;
        break;
      }
    }

    bool grouped = !stmt.group_by.empty() || stmt.having != nullptr;
    if (!grouped) {
      for (const SelectItem& item : stmt.items) {
        if (!item.star && HasAggregate(*item.expr)) grouped = true;
      }
    }

    if (!grouped) {
      // Single SELECT box: projection, DISTINCT, ORDER BY.
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& item = stmt.items[i];
        if (item.star) {
          for (const ScopeEntry& entry : scope) {
            for (const ScopeColumn& col : entry.cols) {
              AddOutput(select_box,
                        BoundExpr::Column(col.id, col.type,
                                          entry.alias + "." + col.name),
                        col.name);
            }
          }
          continue;
        }
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound,
                                BindScalar(*item.expr, scope));
        AddOutput(select_box, std::move(bound), ItemName(item, i));
      }
      select_box->distinct = stmt.distinct;
      select_box->limit = strip_tail ? -1 : stmt.limit;
      auto bind = [&](const Expr& e) { return BindScalar(e, scope); };
      if (strip_tail) return select_box;
      for (const OrderItem& item : stmt.order_by) {
        ORDOPT_ASSIGN_OR_RETURN(
            OrderElement elem,
            BindOrderItem(item, stmt.items, select_box, bind));
        select_box->output_order_requirement.Append(elem);
      }
      return select_box;
    }

    // Grouped query: SELECT box (join) -> GROUP BY box -> finishing SELECT.
    // The join box outputs every visible column; pruning happens in the
    // optimizer.
    for (const ScopeEntry& entry : scope) {
      for (const ScopeColumn& col : entry.cols) {
        AddOutput(select_box,
                  BoundExpr::Column(col.id, col.type,
                                    entry.alias + "." + col.name),
                  col.name);
      }
    }

    QgmBox* group_box = query_->NewBox(QgmBox::Kind::kGroupBy);
    {
      Quantifier q;
      q.alias = "";
      q.input = select_box;
      group_box->quantifiers.push_back(std::move(q));
    }
    GroupScope gs;
    gs.base_scope = &scope;
    gs.group_box = group_box;
    for (const auto& g : stmt.group_by) {
      ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, BindScalar(*g, scope));
      if (!bound.IsColumn()) {
        return Status::Unsupported("GROUP BY items must be plain columns: " +
                                   g->ToString());
      }
      group_box->group_columns.push_back(bound.column());
      gs.group_columns.Add(bound.column());
    }

    QgmBox* top_box = query_->NewBox(QgmBox::Kind::kSelect);
    {
      Quantifier q;
      q.alias = "";
      q.input = group_box;
      top_box->quantifiers.push_back(std::move(q));
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.star) {
        return Status::Unsupported("'*' cannot be combined with GROUP BY");
      }
      ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, BindGrouped(*item.expr, gs));
      AddOutput(top_box, std::move(bound), ItemName(item, i));
    }
    top_box->distinct = stmt.distinct;
    top_box->limit = strip_tail ? -1 : stmt.limit;
    if (stmt.having != nullptr) {
      std::vector<const Expr*> conjuncts;
      SplitConjuncts(*stmt.having, &conjuncts);
      for (const Expr* c : conjuncts) {
        ORDOPT_ASSIGN_OR_RETURN(BoundExpr bound, BindGrouped(*c, gs));
        top_box->predicates.push_back(ClassifyPredicate(std::move(bound)));
      }
    }
    auto bind = [&](const Expr& e) { return BindGrouped(e, gs); };
    if (!strip_tail) {
      for (const OrderItem& item : stmt.order_by) {
        ORDOPT_ASSIGN_OR_RETURN(
            OrderElement elem,
            BindOrderItem(item, stmt.items, top_box, bind));
        top_box->output_order_requirement.Append(elem);
      }
    }

    // GROUP BY box outputs: grouping columns pass through, then aggregates.
    for (const ColumnId& gcol : group_box->group_columns) {
      OutputColumn oc;
      oc.expr = BoundExpr::Column(gcol, query_->TypeOf(gcol),
                                  query_->namer()(gcol));
      oc.name = query_->namer()(gcol);
      oc.id = gcol;
      group_box->outputs.push_back(std::move(oc));
    }
    for (const AggregateSpec& spec : group_box->aggregates) {
      OutputColumn oc;
      oc.expr = BoundExpr::Column(spec.output, query_->TypeOf(spec.output),
                                  spec.name);
      oc.name = spec.name;
      oc.id = spec.output;
      group_box->outputs.push_back(std::move(oc));
    }
    return top_box;
  }

  const Database& db_;
  std::unique_ptr<Query> query_;
};

}  // namespace

Result<std::unique_ptr<Query>> BindQuery(const SelectStmt& stmt,
                                         const Database& db) {
  Binder binder(db);
  return binder.Bind(stmt);
}

}  // namespace ordopt
