#include "optimizer/join_enumeration.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "common/macros.h"

namespace ordopt {

namespace {

// The columns a quantifier contributes: every column of a base table, the
// outputs of a derived box.
ColumnSet QuantifierColumns(const Quantifier& q) {
  if (!q.IsBase()) return q.input->OutputColumns();
  ColumnSet cols;
  for (size_t c = 0; c < q.table->def().columns.size(); ++c) {
    cols.Add(ColumnId(q.id, static_cast<int32_t>(c)));
  }
  return cols;
}

}  // namespace

// ---------------------------------------------------------------------------
// SelectContext
// ---------------------------------------------------------------------------

SelectContext SelectContext::Build(const QgmBox* box, const BoxOrderInfo& info,
                                   int max_sort_ahead_orders) {
  SelectContext ctx;
  ctx.box = box;
  ctx.info = &info;
  const size_t n = box->quantifiers.size();

  ctx.sort_ahead = info.sort_ahead;
  if (ctx.sort_ahead.size() > static_cast<size_t>(max_sort_ahead_orders)) {
    ctx.sort_ahead.resize(static_cast<size_t>(max_sort_ahead_orders));
  }

  // Per-quantifier column sets and the ColumnId.table -> quantifier map.
  ctx.qcols.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ctx.qcols[i] = QuantifierColumns(box->quantifiers[i]);
    for (const ColumnId& c : ctx.qcols[i]) {
      ctx.owner[c.table] = i;
    }
  }

  // Predicates touching an outer-join's null-supplying side cannot run
  // inside the inner-join DP: they apply after that join step (e.g. the
  // IS NULL anti-join filter). Defer each to the last step it references.
  std::vector<ColumnSet> oj_cols;
  for (const OuterJoinStep& step : box->outer_joins) {
    oj_cols.push_back(QuantifierColumns(step.quantifier));
  }
  ctx.deferred.resize(box->outer_joins.size());
  std::vector<const Predicate*> dp_preds;
  for (const Predicate& p : box->predicates) {
    int last_step = -1;
    for (size_t s = 0; s < oj_cols.size(); ++s) {
      if (!p.referenced.Intersect(oj_cols[s]).empty()) {
        last_step = static_cast<int>(s);
      }
    }
    if (last_step >= 0) {
      ctx.deferred[static_cast<size_t>(last_step)].push_back(p);
    } else {
      dp_preds.push_back(&p);
    }
  }

  // Classify predicates: local to one quantifier vs multi-quantifier.
  ctx.local_preds.resize(n);
  for (const Predicate* pp : dp_preds) {
    const Predicate& p = *pp;
    uint32_t pmask = ctx.QuantifierMask(p.referenced);
    if (pmask == 0) {
      // Constant predicate; treat as local to quantifier 0.
      ctx.local_preds[0].push_back(&p);
    } else if ((pmask & (pmask - 1)) == 0) {
      size_t i = static_cast<size_t>(__builtin_ctz(pmask));
      ctx.local_preds[i].push_back(&p);
    } else {
      ctx.multi_preds.push_back(&p);
      ctx.multi_masks.push_back(pmask);
    }
  }

  ctx.mask_card.assign(1u << n, -1.0);
  return ctx;
}

ColumnSet SelectContext::MaskColumns(uint32_t mask) const {
  ColumnSet cols;
  for (size_t i = 0; i < qcols.size(); ++i) {
    if (mask & (1u << i)) cols = cols.Union(qcols[i]);
  }
  return cols;
}

uint32_t SelectContext::QuantifierMask(const ColumnSet& referenced) const {
  uint32_t mask = 0;
  for (const ColumnId& c : referenced) {
    auto it = owner.find(c.table);
    if (it != owner.end()) mask |= 1u << it->second;
  }
  return mask;
}

std::vector<size_t> SelectContext::ApplicablePreds(uint32_t mask) const {
  std::vector<size_t> out;
  for (size_t k = 0; k < multi_preds.size(); ++k) {
    if ((multi_masks[k] & mask) == multi_masks[k]) out.push_back(k);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JoinStrategy
// ---------------------------------------------------------------------------

void JoinStrategy::FinishJoin(Planner& planner, const JoinSplit& split,
                              std::shared_ptr<PlanNode> node,
                              const PlanProperties& outer,
                              const PlanProperties& inner,
                              bool preserves_outer_order,
                              const std::vector<Predicate>& residual,
                              CandidateSet* out) const {
  // Callers price the join before deriving properties; deriving replaces
  // node->props wholesale, so carry the cost across.
  double cost = node->props.cost;
  node->props = JoinProperties(outer, inner, split.pairs,
                               preserves_outer_order, split.out_card);
  node->props.cost = cost;
  for (const auto& [l, r] : split.pairs) {
    node->props.mutable_eq().AddEquivalence(l, r);
  }
  node->props.keys.Simplify(node->props.eq());
  PlanRef result = node;
  if (!residual.empty()) {
    // Filter scales cardinality again; rescale to the mask's deterministic
    // estimate afterwards.
    result = planner.MakeFilter(result, residual);
    auto fixed = std::make_shared<PlanNode>(*result);
    fixed->props.cardinality = split.out_card;
    result = fixed;
  }
  planner.InsertCandidate(out, std::move(result));
}

namespace {

class HashJoinStrategy : public JoinStrategy {
 public:
  const char* name() const override { return "hash"; }

  void Emit(Planner& p, const JoinSplit& s, const PlanRef& outer,
            const PlanRef& inner, CandidateSet* out) const override {
    if (s.pairs.empty() || !Config(p).enable_hash_join) return;
    auto node = std::make_shared<PlanNode>();
    node->kind = OpKind::kHashJoin;
    node->join_pairs = s.pairs;
    node->children = {outer, inner};
    node->props.cost = outer->props.cost + inner->props.cost +
                       Cost(p).HashJoinCost(outer->props.cardinality,
                                            inner->props.cardinality,
                                            s.out_card);
    FinishJoin(p, s, node, outer->props, inner->props,
               /*preserves_outer_order=*/false, s.residual, out);
  }
};

class MergeJoinStrategy : public JoinStrategy {
 public:
  const char* name() const override { return "merge"; }

  void Emit(Planner& p, const JoinSplit& s, const PlanRef& outer,
            const PlanRef& inner, CandidateSet* out) const override {
    if (s.pairs.empty()) return;
    const OptimizerConfig& config = Config(p);
    // Sort-ahead orders coverable with the merge order (§5.2: "In the
    // case of a merge-join, a cover with the merge-join order is also
    // required"): each is one more way to sort an outer that needs a sort.
    std::vector<OrderSpec> covers;
    if (config.enable_order_optimization && config.enable_sort_ahead) {
      OrderContext octx = outer->props.Context(config.transitive_fds);
      ColumnSet targets = s.ctx->MaskColumns(s.outer_mask);
      for (const OrderSpec& want : s.ctx->sort_ahead) {
        OrderSpec homog = HomogenizeOrderPrefix(
            want, targets, *s.ctx->info->optimistic_ctx.eq,
            s.ctx->info->optimistic_ctx);
        if (homog.empty()) continue;
        std::optional<OrderSpec> covered =
            CoverOrder(homog, s.merge_outer, octx);
        if (covered.has_value() && !covered->empty()) {
          if (Tracing(p)) {
            const ColumnNamer namer = GetQuery(p).namer();
            Trace(p)->Add("optimizer", "order.cover")
                .Set("site", "merge_join")
                .Set("i1", homog.ToString(namer))
                .Set("i2", s.merge_outer.ToString(namer))
                .Set("cover", covered->ToString(namer));
          }
          covers.push_back(*covered);
        }
      }
    }
    std::vector<PlanRef> sorted_outers = {
        EnforceOrder(p, "merge_join.outer", s.merge_outer, outer)};
    if (sorted_outers[0] != outer) {
      for (const OrderSpec& cover : covers) {
        sorted_outers.push_back(SortFor(p, "merge_join.outer", cover, outer));
      }
    }
    PlanRef sorted_inner =
        EnforceOrder(p, "merge_join.inner", s.merge_inner, inner);
    for (const PlanRef& so : sorted_outers) {
      auto node = std::make_shared<PlanNode>();
      node->kind = OpKind::kMergeJoin;
      node->join_pairs = s.pairs;
      node->children = {so, sorted_inner};
      node->props.cost = so->props.cost + sorted_inner->props.cost +
                         Cost(p).MergeJoinCost(so->props.cardinality,
                                               sorted_inner->props.cardinality,
                                               s.out_card);
      FinishJoin(p, s, node, so->props, sorted_inner->props,
                 /*preserves_outer_order=*/true, s.residual, out);
    }
  }
};

class CartesianNLStrategy : public JoinStrategy {
 public:
  const char* name() const override { return "cartesian_nl"; }

  void Emit(Planner& p, const JoinSplit& s, const PlanRef& outer,
            const PlanRef& inner, CandidateSet* out) const override {
    if (!s.pairs.empty()) return;
    auto node = std::make_shared<PlanNode>();
    node->kind = OpKind::kNaiveNLJoin;
    node->children = {outer, inner};
    node->props.cost = outer->props.cost +
                       Cost(p).NaiveNestedLoopCost(outer->props.cardinality,
                                                   inner->props.cardinality,
                                                   inner->props.cost);
    FinishJoin(p, s, node, outer->props, inner->props,
               /*preserves_outer_order=*/true, s.residual, out);
  }
};

class IndexNLStrategy : public JoinStrategy {
 public:
  const char* name() const override { return "index_nl"; }

  void Emit(Planner& p, const JoinSplit& s, const PlanRef& outer,
            const PlanRef& inner, CandidateSet* out) const override {
    (void)inner;  // the inner side is rebuilt as index probes
    if (s.pairs.empty() || __builtin_popcount(s.inner_mask) != 1) return;
    size_t qi = static_cast<size_t>(__builtin_ctz(s.inner_mask));
    const Quantifier& q = s.ctx->box->quantifiers[qi];
    if (!q.IsBase()) return;
    const Query& query = GetQuery(p);
    const OptimizerConfig& config = Config(p);
    for (size_t x = 0; x < q.table->def().indexes.size(); ++x) {
      const IndexDef& idx = q.table->def().indexes[x];
      // Greedy prefix of index columns covered by join pairs.
      std::vector<std::pair<ColumnId, ColumnId>> matched;
      for (int ord : idx.column_ordinals) {
        ColumnId target(q.id, ord);
        bool hit = false;
        for (const auto& pr : s.pairs) {
          if (pr.second == target) {
            matched.push_back(pr);
            hit = true;
            break;
          }
        }
        if (!hit) break;
      }
      if (matched.empty()) continue;
      double distinct = 1.0;
      for (const auto& pr : matched) {
        distinct = std::max(distinct, Cost(p).DistinctCount(pr.second, query));
      }
      double inner_rows = static_cast<double>(q.table->row_count());
      double rows_per_probe = std::max(1.0, inner_rows / distinct);
      // Recognizing that the outer's order makes probes clustered is itself
      // order reasoning (§8.1: the disabled optimizer, "without an
      // awareness of equivalence classes, was unable to determine that the
      // same sort could be used to generate an ordered nested-loop join").
      bool ordered = false;
      if (config.enable_order_optimization && !outer->props.order.empty()) {
        const ColumnId& lead = outer->props.order.at(0).col;
        ordered = lead == matched[0].first ||
                  outer->props.eq().AreEquivalent(lead, matched[0].first);
      }
      auto node = std::make_shared<PlanNode>();
      node->kind = OpKind::kIndexNLJoin;
      node->table = q.table;
      node->table_id = q.id;
      node->index_ordinal = static_cast<int>(x);
      node->join_pairs = matched;
      node->ordered_probes = ordered;
      node->children = {outer};
      // Residual: unmatched join pairs + inner local predicates.
      std::vector<Predicate> probe_residual = s.residual;
      for (const auto& pr : s.pairs) {
        bool used =
            std::find(matched.begin(), matched.end(), pr) != matched.end();
        if (used) continue;
        BoundExpr cmp = BoundExpr::Binary(
            BinOp::kEq,
            BoundExpr::Column(pr.first, query.TypeOf(pr.first),
                              query.namer()(pr.first)),
            BoundExpr::Column(pr.second, query.TypeOf(pr.second),
                              query.namer()(pr.second)),
            DataType::kInt64);
        probe_residual.push_back(ClassifyPredicate(std::move(cmp)));
      }
      for (const Predicate* lp : s.ctx->local_preds[qi]) {
        probe_residual.push_back(*lp);
      }
      node->props.cost = outer->props.cost +
                         Cost(p).IndexNestedLoopCost(
                             *q.table, idx.clustered, outer->props.cardinality,
                             rows_per_probe, ordered);
      FinishJoin(p, s, node, outer->props, BaseTableProperties(*q.table, q.id),
                 /*preserves_outer_order=*/true, probe_residual, out);
    }
  }
};

}  // namespace

const std::vector<std::unique_ptr<JoinStrategy>>& DefaultJoinStrategies() {
  static const auto* strategies = [] {
    auto* v = new std::vector<std::unique_ptr<JoinStrategy>>();
    v->push_back(std::make_unique<HashJoinStrategy>());
    v->push_back(std::make_unique<MergeJoinStrategy>());
    v->push_back(std::make_unique<CartesianNLStrategy>());
    v->push_back(std::make_unique<IndexNLStrategy>());
    return v;
  }();
  return *strategies;
}

// ---------------------------------------------------------------------------
// DP enumeration over quantifier masks
// ---------------------------------------------------------------------------

double Planner::MaskCardinality(SelectContext* sctx, uint32_t mask) const {
  // Product of leaf cardinalities times the selectivity of every multi-
  // quantifier predicate applicable within the mask, shared by all plans of
  // the mask so pruning compares like with like.
  if (sctx->mask_card[mask] >= 0) return sctx->mask_card[mask];
  double card = 1.0;
  for (size_t i = 0; i < sctx->qcols.size(); ++i) {
    if (mask & (1u << i)) card *= sctx->mask_card[1u << i];
  }
  for (size_t k : sctx->ApplicablePreds(mask)) {
    card *= cost_model_.Selectivity(*sctx->multi_preds[k], query_);
  }
  card = std::max(card, 1.0);
  sctx->mask_card[mask] = card;
  return card;
}

void Planner::EnumerateJoins(SelectContext* sctx, Memo* memo) {
  const QgmBox* box = sctx->box;
  const size_t n = box->quantifiers.size();
  const uint32_t full = (1u << n) - 1;
  const auto& strategies = DefaultJoinStrategies();

  // Enumerate joins bottom-up by mask population count.
  std::vector<uint32_t> masks_by_size;
  for (uint32_t mask = 1; mask <= full; ++mask) masks_by_size.push_back(mask);
  std::sort(masks_by_size.begin(), masks_by_size.end(),
            [](uint32_t a, uint32_t b) {
              int pa = __builtin_popcount(a), pb = __builtin_popcount(b);
              return pa != pb ? pa < pb : a < b;
            });

  for (uint32_t mask : masks_by_size) {
    if (__builtin_popcount(mask) < 2) continue;
    double out_card = MaskCardinality(sctx, mask);
    CandidateSet& group = memo->Group(mask);
    std::vector<size_t> applicable = sctx->ApplicablePreds(mask);

    bool found_connected = false;
    for (int pass = 0; pass < 2; ++pass) {
      bool allow_cartesian = pass == 1;
      if (allow_cartesian && found_connected) break;
      for (uint32_t outer_mask = (mask - 1) & mask; outer_mask != 0;
           outer_mask = (outer_mask - 1) & mask) {
        uint32_t inner_mask = mask ^ outer_mask;
        const CandidateSet* outer_group = memo->FindGroup(outer_mask);
        const CandidateSet* inner_group = memo->FindGroup(inner_mask);
        if (inner_mask == 0 || outer_group == nullptr ||
            outer_group->empty() || inner_group == nullptr ||
            inner_group->empty()) {
          continue;
        }

        JoinSplit split;
        split.ctx = sctx;
        split.mask = mask;
        split.outer_mask = outer_mask;
        split.inner_mask = inner_mask;
        split.out_card = out_card;

        // Predicates newly applicable at this split; equality predicates
        // crossing it become (outer col, inner col) join pairs.
        for (size_t k : applicable) {
          uint32_t pm = sctx->multi_masks[k];
          if ((pm & outer_mask) == pm || (pm & inner_mask) == pm) continue;
          const Predicate* p = sctx->multi_preds[k];
          if (p->kind == Predicate::Kind::kColEqCol) {
            uint32_t lm = sctx->QuantifierMask(ColumnSet{p->left_col});
            uint32_t rm = sctx->QuantifierMask(ColumnSet{p->right_col});
            if ((lm & outer_mask) && (rm & inner_mask)) {
              split.pairs.emplace_back(p->left_col, p->right_col);
              continue;
            }
            if ((rm & outer_mask) && (lm & inner_mask)) {
              split.pairs.emplace_back(p->right_col, p->left_col);
              continue;
            }
          }
          split.residual.push_back(*p);
        }
        if (split.pairs.empty() && !allow_cartesian) continue;
        if (!split.pairs.empty()) found_connected = true;

        // Join-pair columns as order specs.
        std::vector<ColumnId> outer_cols, inner_cols;
        for (const auto& [l, r] : split.pairs) {
          outer_cols.push_back(l);
          inner_cols.push_back(r);
        }
        split.merge_outer = OrderSpec::Ascending(outer_cols);
        split.merge_inner = OrderSpec::Ascending(inner_cols);

        for (const PlanRef& outer : outer_group->plans()) {
          for (const PlanRef& inner : inner_group->plans()) {
            for (const auto& strategy : strategies) {
              strategy->Emit(*this, split, outer, inner, &group);
            }
          }
        }
      }
      if (found_connected) break;
    }

    // Sort-ahead at intermediate levels (§5.2: "an arbitrary number of
    // levels in a join tree").
    if (mask != full) {
      SortAhead("intermediate", *sctx, sctx->MaskColumns(mask), &group);
    }
  }
}

void Planner::SortAhead(const char* site, const SelectContext& sctx,
                        const ColumnSet& targets, CandidateSet* group) {
  if (!config_.enable_order_optimization || !config_.enable_sort_ahead ||
      group->empty()) {
    return;
  }
  const OrderContext& octx = sctx.info->optimistic_ctx;
  const bool report_every_homogenization = std::string_view(site) == "leaf";
  PlanRef cheapest = group->Cheapest();
  for (const OrderSpec& want : sctx.sort_ahead) {
    OrderSpec homog = HomogenizeOrderPrefix(want, targets, *octx.eq, octx);
    if (homog.empty()) continue;
    bool satisfied = OrderSatisfied(homog, *cheapest);
    if (tracing() && homog != want &&
        (report_every_homogenization || !satisfied)) {
      trace_->Add("optimizer", "order.homogenize")
          .Set("site", site)
          .Set("requested", want.ToString(query_.namer()))
          .Set("translated", homog.ToString(query_.namer()));
    }
    if (satisfied) continue;
    PlanRef sorted = SortFor(/*site=*/nullptr, homog, cheapest);
    bool retained = InsertCandidate(group, sorted);
    TraceSortAhead(site, homog, *sorted, retained);
  }
}

// ---------------------------------------------------------------------------
// LEFT OUTER JOIN folding
// ---------------------------------------------------------------------------

Result<std::vector<PlanRef>> Planner::FoldOuterJoin(
    const QgmBox* box, const OuterJoinStep& step,
    std::vector<PlanRef> outers) {
  const Quantifier& q = step.quantifier;

  const ColumnSet inner_cols = QuantifierColumns(q);  // null-supplying side

  // Split the ON conjuncts: predicates local to the null side can be
  // applied below the join (they only shrink the match set); equality
  // predicates crossing the join drive merge/hash variants; anything else
  // forces the general nested-loop form.
  std::vector<const Predicate*> inner_local;
  std::vector<std::pair<ColumnId, ColumnId>> pairs;
  std::vector<Predicate> residual;
  for (const Predicate& p : step.on_predicates) {
    if (p.referenced.IsSubsetOf(inner_cols)) {
      inner_local.push_back(&p);
      continue;
    }
    if (p.kind == Predicate::Kind::kColEqCol) {
      bool l_inner = inner_cols.Contains(p.left_col);
      bool r_inner = inner_cols.Contains(p.right_col);
      if (l_inner != r_inner) {
        if (l_inner) {
          pairs.emplace_back(p.right_col, p.left_col);
        } else {
          pairs.emplace_back(p.left_col, p.right_col);
        }
        continue;
      }
    }
    residual.push_back(p);
  }

  // Access paths for the null-supplying side (no sort-ahead through it:
  // only the preserved side's order survives the join).
  ORDOPT_ASSIGN_OR_RETURN(CandidateSet inners,
                          AccessPaths(box, q, inner_local));
  if (inners.empty()) {
    return Status::Internal("no access path for outer-join quantifier " +
                            q.alias);
  }
  PlanRef cheapest_inner = inners.Cheapest();

  OrderSpec merge_outer, merge_inner;
  for (const auto& [o, i] : pairs) {
    merge_outer.Append(OrderElement(o));
    merge_inner.Append(OrderElement(i));
  }

  CandidateSet result;
  for (const PlanRef& outer : outers) {
    double match_card = std::max(
        1.0, outer->props.cardinality * cheapest_inner->props.cardinality *
                 cost_model_.JoinSelectivity(pairs, query_));
    double out_card = std::max(outer->props.cardinality, match_card);

    if (residual.empty() && !pairs.empty()) {
      if (config_.enable_hash_join) {
        auto node = std::make_shared<PlanNode>();
        node->kind = OpKind::kHashLeftJoin;
        node->join_pairs = pairs;
        node->children = {outer, cheapest_inner};
        node->props = LeftJoinProperties(outer->props, cheapest_inner->props,
                                         pairs, /*preserves=*/false, out_card);
        node->props.cost =
            outer->props.cost + cheapest_inner->props.cost +
            cost_model_.HashJoinCost(outer->props.cardinality,
                                     cheapest_inner->props.cardinality,
                                     out_card);
        InsertCandidate(&result, std::move(node));
      }
      // Merge-left: preserves the outer's order.
      PlanRef sorted_outer =
          EnforceOrder("merge_left_join.outer", merge_outer, outer);
      PlanRef sorted_inner =
          EnforceOrder("merge_left_join.inner", merge_inner, cheapest_inner);
      auto node = std::make_shared<PlanNode>();
      node->kind = OpKind::kMergeLeftJoin;
      node->join_pairs = pairs;
      node->children = {sorted_outer, sorted_inner};
      node->props = LeftJoinProperties(sorted_outer->props,
                                       sorted_inner->props, pairs,
                                       /*preserves=*/true, out_card);
      node->props.cost =
          sorted_outer->props.cost + sorted_inner->props.cost +
          cost_model_.MergeJoinCost(sorted_outer->props.cardinality,
                                    sorted_inner->props.cardinality, out_card);
      InsertCandidate(&result, std::move(node));
    } else {
      // General form: every ON conjunct evaluated inside the join.
      auto node = std::make_shared<PlanNode>();
      node->kind = OpKind::kNaiveLeftJoin;
      node->predicates = step.on_predicates;
      node->children = {outer, cheapest_inner};
      node->props = LeftJoinProperties(outer->props, cheapest_inner->props,
                                       pairs, /*preserves=*/true, out_card);
      node->props.cost = outer->props.cost +
                         cost_model_.NaiveNestedLoopCost(
                             outer->props.cardinality,
                             cheapest_inner->props.cardinality,
                             cheapest_inner->props.cost);
      InsertCandidate(&result, std::move(node));
    }
  }
  return std::move(result.mutable_plans());
}

}  // namespace ordopt
