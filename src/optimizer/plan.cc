#include "optimizer/plan.h"

#include "common/str_util.h"

namespace ordopt {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTableScan:
      return "TableScan";
    case OpKind::kIndexScan:
      return "IndexScan";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kMergeJoin:
      return "MergeJoin";
    case OpKind::kIndexNLJoin:
      return "IndexNLJoin";
    case OpKind::kNaiveNLJoin:
      return "NestedLoopJoin";
    case OpKind::kHashJoin:
      return "HashJoin";
    case OpKind::kMergeLeftJoin:
      return "MergeLeftJoin";
    case OpKind::kHashLeftJoin:
      return "HashLeftJoin";
    case OpKind::kNaiveLeftJoin:
      return "NestedLoopLeftJoin";
    case OpKind::kStreamGroupBy:
      return "StreamGroupBy";
    case OpKind::kSortGroupBy:
      return "SortGroupBy";
    case OpKind::kHashGroupBy:
      return "HashGroupBy";
    case OpKind::kStreamDistinct:
      return "StreamDistinct";
    case OpKind::kHashDistinct:
      return "HashDistinct";
    case OpKind::kProject:
      return "Project";
    case OpKind::kLimit:
      return "Limit";
    case OpKind::kUnionAll:
      return "UnionAll";
    case OpKind::kMergeUnion:
      return "MergeUnion";
    case OpKind::kTopN:
      return "TopN";
    case OpKind::kExchange:
      return "Exchange";
  }
  return "?";
}

std::string NodeLabel(const PlanNode& node_ref, const ColumnNamer& namer) {
  const PlanNode* node = &node_ref;
  std::string label = OpKindName(node->kind);
  std::string* out = &label;
  switch (node->kind) {
    case OpKind::kTableScan:
      *out += StrFormat("(%s)", node->table->name().c_str());
      break;
    case OpKind::kIndexScan: {
      const IndexDef& idx =
          node->table->def().indexes[static_cast<size_t>(node->index_ordinal)];
      *out += StrFormat("(%s.%s%s%s)", node->table->name().c_str(),
                        idx.name.c_str(), node->reverse_scan ? " reverse" : "",
                        idx.clustered ? " clustered" : "");
      if (!node->range_predicates.empty()) {
        std::vector<std::string> preds;
        for (const Predicate& p : node->range_predicates) {
          preds.push_back(p.ToString());
        }
        *out += " range[" + Join(preds, " AND ") + "]";
      }
      break;
    }
    case OpKind::kFilter: {
      std::vector<std::string> preds;
      for (const Predicate& p : node->predicates) preds.push_back(p.ToString());
      *out += "[" + Join(preds, " AND ") + "]";
      break;
    }
    case OpKind::kSort:
      *out += node->sort_spec.ToString(namer);
      break;
    case OpKind::kMergeJoin:
    case OpKind::kHashJoin:
    case OpKind::kIndexNLJoin:
    case OpKind::kNaiveNLJoin:
    case OpKind::kMergeLeftJoin:
    case OpKind::kHashLeftJoin:
    case OpKind::kNaiveLeftJoin: {
      std::vector<std::string> pairs;
      for (const auto& [l, r] : node->join_pairs) {
        std::string ln = namer ? namer(l) : DefaultColumnName(l);
        std::string rn = namer ? namer(r) : DefaultColumnName(r);
        pairs.push_back(ln + " = " + rn);
      }
      if (!pairs.empty()) *out += "[" + Join(pairs, " AND ") + "]";
      if (!node->predicates.empty()) {
        std::vector<std::string> preds;
        for (const Predicate& p : node->predicates) {
          preds.push_back(p.ToString());
        }
        *out += " on[" + Join(preds, " AND ") + "]";
      }
      if (node->kind == OpKind::kIndexNLJoin) {
        const IndexDef& idx = node->table->def()
                                  .indexes[static_cast<size_t>(
                                      node->index_ordinal)];
        *out += StrFormat(" probe %s.%s%s%s", node->table->name().c_str(),
                          idx.name.c_str(), idx.clustered ? " clustered" : "",
                          node->ordered_probes ? " ordered" : "");
      }
      break;
    }
    case OpKind::kStreamGroupBy:
    case OpKind::kSortGroupBy:
    case OpKind::kHashGroupBy: {
      if (node->agg_phase != AggPhase::kComplete) {
        *out += node->agg_phase == AggPhase::kPartial ? "(partial)" : "(final)";
      }
      std::vector<std::string> cols;
      for (const ColumnId& c : node->group_columns) {
        cols.push_back(namer ? namer(c) : DefaultColumnName(c));
      }
      *out += "[" + Join(cols, ", ") + "]";
      cols.clear();
      for (const AggregateSpec& a : node->aggregates) cols.push_back(a.name);
      if (!cols.empty()) *out += " aggs[" + Join(cols, ", ") + "]";
      break;
    }
    case OpKind::kStreamDistinct:
    case OpKind::kHashDistinct:
      break;
    case OpKind::kProject: {
      std::vector<std::string> cols;
      for (const OutputColumn& oc : node->projections) cols.push_back(oc.name);
      *out += "[" + Join(cols, ", ") + "]";
      break;
    }
    case OpKind::kLimit:
      *out += StrFormat("(%lld)", static_cast<long long>(node->limit));
      break;
    case OpKind::kUnionAll:
    case OpKind::kMergeUnion:
      *out += StrFormat("(%zu branches)", node->children.size());
      break;
    case OpKind::kTopN:
      *out += node->sort_spec.ToString(namer) +
              StrFormat(" limit %lld", static_cast<long long>(node->limit));
      break;
    case OpKind::kExchange:
      *out += StrFormat("(merge, %d workers) on", node->exchange_workers) +
              node->sort_spec.ToString(namer);
      break;
  }
  return label;
}

namespace {

void FingerprintNode(const PlanNode* node, std::string* out) {
  *out += NodeLabel(*node);
  // Distinct columns are not part of the label; include them so two
  // duplicate-elimination plans over different column sets differ.
  if (node->kind == OpKind::kStreamDistinct ||
      node->kind == OpKind::kHashDistinct) {
    std::vector<std::string> cols;
    for (const ColumnId& c : node->distinct_columns) {
      cols.push_back(DefaultColumnName(c));
    }
    *out += "[" + Join(cols, ", ") + "]";
  }
  *out += StrFormat("{cost=%.6g rows=%.6g", node->props.cost,
                    node->props.cardinality);
  if (!node->props.order.empty()) {
    *out += " order" + node->props.order.ToString();
  }
  *out += "}";
  if (!node->children.empty()) {
    *out += "(";
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (i != 0) *out += ", ";
      FingerprintNode(node->children[i].get(), out);
    }
    *out += ")";
  }
}

void Print(const PlanNode* node, const ColumnNamer& namer, int indent,
           std::string* out) {
  *out += std::string(static_cast<size_t>(indent) * 2, ' ');
  *out += NodeLabel(*node, namer);
  *out += StrFormat("  {cost=%.1f rows=%.0f", node->props.cost,
                    node->props.cardinality);
  if (!node->props.order.empty()) {
    *out += " order" + node->props.order.ToString(namer);
  }
  *out += "}\n";
  for (const auto& child : node->children) {
    Print(child.get(), namer, indent + 1, out);
  }
}

}  // namespace

std::string PlanNode::ToString(const ColumnNamer& namer) const {
  std::string out;
  Print(this, namer, 0, &out);
  return out;
}

std::string PlanFingerprint(const PlanNode& node) {
  std::string out;
  FingerprintNode(&node, &out);
  return out;
}

int PlanNode::NodeCount() const {
  int count = 1;
  for (const auto& child : children) count += child->NodeCount();
  return count;
}

bool PlanNode::ContainsKind(OpKind k) const {
  if (kind == k) return true;
  for (const auto& child : children) {
    if (child->ContainsKind(k)) return true;
  }
  return false;
}

PlanRef BindPlanSlots(const PlanRef& plan, const std::vector<Value>& values,
                      const ColumnNamer& namer) {
  std::shared_ptr<PlanNode> copy;  // made on the first change
  auto mutable_node = [&]() -> PlanNode& {
    if (copy == nullptr) copy = std::make_shared<PlanNode>(*plan);
    return *copy;
  };
  for (size_t i = 0; i < plan->children.size(); ++i) {
    PlanRef child = BindPlanSlots(plan->children[i], values, namer);
    if (child != plan->children[i]) mutable_node().children[i] = child;
  }
  for (auto field : {&PlanNode::predicates, &PlanNode::range_predicates}) {
    const std::vector<Predicate>& preds = (*plan).*field;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i].has_slots()) {
        (mutable_node().*field)[i] = preds[i].BindSlots(values);
      }
    }
  }
  for (size_t i = 0; i < plan->projections.size(); ++i) {
    const BoundExpr& expr = plan->projections[i].expr;
    if (expr.has_slots()) {
      mutable_node().projections[i].expr = expr.BindSlots(values);
    }
  }
  for (size_t i = 0; i < plan->aggregates.size(); ++i) {
    const AggregateSpec& agg = plan->aggregates[i];
    if (agg.count_star || !agg.arg.has_slots()) continue;
    AggregateSpec& bound = mutable_node().aggregates[i];
    bound.arg = agg.arg.BindSlots(values);
    if (namer) bound.name = namer(agg.output);
  }
  return copy != nullptr ? copy : plan;
}

void PlanNode::CollectKind(OpKind k, std::vector<const PlanNode*>* out) const {
  if (kind == k) out->push_back(this);
  for (const auto& child : children) child->CollectKind(k, out);
}

}  // namespace ordopt
