#include "properties/plan_properties.h"

#include <atomic>

#include "common/str_util.h"

namespace ordopt {

namespace {
// Process-wide epoch source. Epoch 0 is reserved for "unstamped", so the
// counter starts at 1.
std::atomic<uint64_t> g_next_epoch{1};
}  // namespace

OrderContext PlanProperties::Context(bool transitive_fds) const {
  uint64_t epoch = epoch_.load();
  if (epoch == 0) {
    // First stamp wins: concurrent callers racing on an unstamped bundle
    // CAS a fresh epoch in, and the losers adopt the winner's value so
    // every thread sees one identity for this content.
    uint64_t fresh = g_next_epoch.fetch_add(1, std::memory_order_relaxed);
    if (epoch_.compare_exchange(epoch, fresh)) epoch = fresh;
    // On failure compare_exchange loaded the winner's epoch into `epoch`.
  }
  return OrderContext(eq_, fds_, transitive_fds, epoch);
}

std::string PlanProperties::ToString(const ColumnNamer& namer) const {
  std::string out = "order" + order.ToString(namer);
  out += " " + keys.ToString(namer);
  out += StrFormat(" card=%.0f", cardinality);
  return out;
}

PlanProperties BaseTableProperties(const Table& table, int table_id) {
  PlanProperties props;
  const TableDef& def = table.def();
  for (size_t i = 0; i < def.columns.size(); ++i) {
    props.columns.Add(ColumnId(table_id, static_cast<int32_t>(i)));
  }
  FDSet& fds = props.mutable_fds();
  for (const std::vector<int>& key : def.unique_keys) {
    ColumnSet key_cols;
    for (int ord : key) key_cols.Add(ColumnId(table_id, ord));
    props.keys.AddKey(key_cols);
    fds.AddKey(key_cols, props.columns);
  }
  // Unique indexes are keys too.
  for (const IndexDef& idx : def.indexes) {
    if (!idx.unique) continue;
    ColumnSet key_cols;
    for (int ord : idx.column_ordinals) key_cols.Add(ColumnId(table_id, ord));
    props.keys.AddKey(key_cols);
    fds.AddKey(key_cols, props.columns);
  }
  props.cardinality = static_cast<double>(table.row_count());
  return props;
}

void ApplyPredicate(PlanProperties* props, const Predicate& pred,
                    double selectivity) {
  switch (pred.kind) {
    case Predicate::Kind::kColEqCol:
      props->mutable_eq().AddEquivalence(pred.left_col, pred.right_col);
      break;
    case Predicate::Kind::kColEqConst:
      props->mutable_eq().AddConstant(pred.left_col, pred.constant);
      break;
    default:
      break;
  }
  props->cardinality *= selectivity;
  if (props->cardinality < 1.0) props->cardinality = 1.0;
  // Key columns bound to constants stop discriminating; a fully bound key
  // collapses the property to the one-record condition.
  props->keys.Simplify(props->eq());
}

PlanProperties JoinProperties(
    const PlanProperties& outer, const PlanProperties& inner,
    const std::vector<std::pair<ColumnId, ColumnId>>& join_pairs,
    bool preserves_outer_order, double cardinality) {
  PlanProperties props;
  props.columns = outer.columns.Union(inner.columns);
  {
    EquivalenceClasses& eq = props.mutable_eq();
    eq = outer.eq();
    eq.MergeFrom(inner.eq());
    FDSet& fds = props.mutable_fds();
    fds = outer.fds();
    fds.MergeFrom(inner.fds());
  }
  props.keys = KeyProperty::PropagateJoin(outer.keys, inner.keys, join_pairs);
  props.keys.Simplify(props.eq());
  if (preserves_outer_order) props.order = outer.order;
  props.cardinality = cardinality;
  return props;
}

PlanProperties LeftJoinProperties(
    const PlanProperties& outer, const PlanProperties& inner,
    const std::vector<std::pair<ColumnId, ColumnId>>& on_pairs,
    bool preserves_outer_order, double cardinality) {
  PlanProperties props;
  props.columns = outer.columns.Union(inner.columns);
  {
    EquivalenceClasses& eq = props.mutable_eq();
    eq = outer.eq();
    eq.MergeEquivalencesFrom(inner.eq());
    FDSet& fds = props.mutable_fds();
    fds = outer.fds();
    fds.MergeFrom(inner.fds());
    // §4.1: {preserved} -> {null-supplying} per equality ON predicate.
    for (const auto& [p, n] : on_pairs) {
      fds.Add(ColumnSet{p}, ColumnSet{n});
    }
  }
  // Keys: n-to-1 (some inner key fully covered by ON columns) keeps the
  // outer's keys; otherwise concatenate.
  ColumnSet inner_on_cols;
  for (const auto& [p, n] : on_pairs) {
    (void)p;
    inner_on_cols.Add(n);
  }
  if (inner.keys.IsUniqueOn(inner_on_cols)) {
    props.keys = outer.keys;
  } else {
    for (const ColumnSet& ko : outer.keys.keys()) {
      for (const ColumnSet& ki : inner.keys.keys()) {
        props.keys.AddKey(ko.Union(ki));
      }
    }
  }
  props.keys.Simplify(props.eq());
  if (preserves_outer_order) props.order = outer.order;
  props.cardinality = cardinality;
  return props;
}

PlanProperties SortProperties(const PlanProperties& input,
                              const OrderSpec& spec) {
  PlanProperties props = input;
  props.order = spec;
  return props;
}

PlanProperties GroupByProperties(const PlanProperties& input,
                                 const std::vector<ColumnId>& group_columns,
                                 const ColumnSet& aggregate_outputs,
                                 bool preserves_order, double cardinality) {
  PlanProperties props;
  ColumnSet group_set;
  for (const ColumnId& c : group_columns) group_set.Add(c);
  props.columns = group_set.Union(aggregate_outputs);
  props.mutable_eq() = input.eq();
  props.mutable_fds() = input.fds();
  // After grouping, the grouping columns identify each output record and
  // determine the aggregate outputs.
  props.keys.AddKey(group_set);
  props.keys.Simplify(props.eq());
  props.mutable_fds().Add(group_set, props.columns);
  if (preserves_order) {
    props.order = input.order;
  }
  props.cardinality = cardinality;
  return props;
}

PlanProperties DistinctProperties(const PlanProperties& input,
                                  const ColumnSet& distinct_columns,
                                  bool preserves_order, double cardinality) {
  PlanProperties props = input;
  props.columns = distinct_columns;
  props.keys.AddKey(distinct_columns);
  props.keys.Simplify(props.eq());
  if (!preserves_order) props.order = OrderSpec();
  props.cardinality = cardinality;
  props.keys.Project(distinct_columns);
  // Re-add: Project may have dropped the new key if it referenced invisible
  // columns — it cannot (distinct_columns are visible), but keep keys valid.
  props.keys.AddKey(distinct_columns);
  return props;
}

PlanProperties ProjectProperties(const PlanProperties& input,
                                 const ColumnSet& visible) {
  PlanProperties props = input;
  props.columns = visible;
  props.keys.Project(visible);
  // Truncate the order property at the first invisible column that has no
  // visible equivalent.
  OrderSpec truncated;
  for (const OrderElement& e : input.order) {
    std::optional<ColumnId> member = input.eq().VisibleMember(
        e.col, [&](const ColumnId& m) { return visible.Contains(m); });
    if (!member.has_value()) break;
    truncated.Append(OrderElement(*member, e.dir));
  }
  props.order = truncated;
  return props;
}

}  // namespace ordopt
