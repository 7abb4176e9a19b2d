#include "orderopt/general_order.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"

namespace ordopt {

GeneralOrderSpec GeneralOrderSpec::ForGrouping(
    const std::vector<ColumnId>& cols) {
  GeneralOrderSpec out;
  Group g;
  for (const ColumnId& c : cols) g.elements.emplace_back(c);
  if (!g.elements.empty()) out.groups_.push_back(std::move(g));
  return out;
}

GeneralOrderSpec GeneralOrderSpec::FromConcrete(const OrderSpec& spec) {
  GeneralOrderSpec out;
  for (const OrderElement& e : spec) {
    Group g;
    g.elements.emplace_back(e.col, e.dir);
    out.groups_.push_back(std::move(g));
  }
  return out;
}

ColumnSet GeneralOrderSpec::Columns() const {
  ColumnSet out;
  for (const Group& g : groups_) {
    for (const Element& e : g.elements) out.Add(e.col);
  }
  return out;
}

namespace {

// Direction pins keyed by equivalence-class head.
using PinMap = std::unordered_map<ColumnId, SortDirection, ColumnIdHash>;

// The group's columns that still constrain the order: equivalence-class
// heads of non-constant members, deduplicated. Also collects direction pins.
ColumnSet EffectiveColumns(const GeneralOrderSpec::Group& group,
                           const OrderContext& ctx, PinMap* pins) {
  ColumnSet out;
  for (const GeneralOrderSpec::Element& e : group.elements) {
    ColumnId head = ctx.eq->Head(e.col);
    if (ctx.eq->IsConstant(head)) continue;
    out.Add(head);
    if (e.fixed_dir.has_value() && pins != nullptr) {
      pins->emplace(head, *e.fixed_dir);
    }
  }
  return out;
}

bool AllDetermined(const ColumnSet& required, const ColumnSet& by,
                   const OrderContext& ctx) {
  for (const ColumnId& c : required) {
    if (!ctx.Determines(by, c)) return false;
  }
  return true;
}

}  // namespace

bool GeneralOrderSpec::Satisfies(const OrderSpec& property,
                                 const OrderContext& ctx) const {
  OrderSpec op = ReduceOrder(property, ctx);
  PinMap pins;
  ColumnSet cum_required;  // union of processed groups' effective columns
  ColumnSet prefix;        // columns of op[0..pos)
  size_t pos = 0;

  for (const Group& group : groups_) {
    cum_required = cum_required.Union(EffectiveColumns(group, ctx, &pins));
    // Consume property columns until the prefix and the cumulative
    // requirement mutually determine each other; a group of R is contiguous
    // under O exactly when some prefix P of O has P -> R and R -> P.
    while (!AllDetermined(cum_required, prefix, ctx)) {
      if (pos == op.size()) return false;
      const OrderElement& e = op.at(pos);
      // Every consumed column must be determined by the requirement so far,
      // otherwise it splits groups apart.
      if (!ctx.Determines(cum_required, e.col)) return false;
      auto pin = pins.find(e.col);
      if (pin != pins.end() && pin->second != e.dir) return false;
      prefix.Add(e.col);
      ++pos;
    }
  }
  return true;
}

std::optional<OrderSpec> GeneralOrderSpec::CoverConcrete(
    const OrderSpec& concrete, const OrderContext& ctx) const {
  OrderSpec c = ReduceOrder(concrete, ctx);
  PinMap pins;
  OrderSpec result;
  ColumnSet consumed;

  size_t group_idx = 0;
  ColumnSet remaining;  // effective columns of the current group not yet laid
  if (!groups_.empty()) {
    remaining = EffectiveColumns(groups_[0], ctx, &pins);
  }

  auto append_remaining_group = [&]() {
    // Lay the group's leftover columns in canonical (ColumnId) order with
    // pinned or ascending direction.
    for (const ColumnId& col : remaining) {
      auto pin = pins.find(col);
      SortDirection dir =
          pin != pins.end() ? pin->second : SortDirection::kAscending;
      result.Append(OrderElement(col, dir));
      consumed.Add(col);
    }
    remaining = ColumnSet();
  };

  for (const OrderElement& e : c) {
    ColumnId head = ctx.eq->Head(e.col);
    bool placed = false;
    while (!placed) {
      if (remaining.Contains(head)) {
        auto pin = pins.find(head);
        if (pin != pins.end() && pin->second != e.dir) return std::nullopt;
        result.Append(OrderElement(head, e.dir));
        consumed.Add(head);
        remaining.Remove(head);
        placed = true;
      } else if (ctx.Determines(consumed, head)) {
        placed = true;  // redundant given what is already laid down
      } else if (remaining.empty() && group_idx + 1 < groups_.size()) {
        ++group_idx;
        remaining = EffectiveColumns(groups_[group_idx], ctx, &pins);
        // Columns already consumed do not need laying again.
        for (const ColumnId& done : consumed) remaining.Remove(done);
      } else if (remaining.empty() && group_idx + 1 >= groups_.size()) {
        // All groups exhausted: trailing concrete columns refine within the
        // final groups, which is always safe.
        result.Append(OrderElement(head, e.dir));
        consumed.Add(head);
        placed = true;
      } else {
        // The concrete order needs `head` before the current group is
        // exhausted, but `head` is not part of the group: no single order
        // can satisfy both.
        return std::nullopt;
      }
    }
  }

  // Lay down everything the concrete order did not mention.
  append_remaining_group();
  while (group_idx + 1 < groups_.size()) {
    ++group_idx;
    remaining = EffectiveColumns(groups_[group_idx], ctx, &pins);
    for (const ColumnId& done : consumed) remaining.Remove(done);
    append_remaining_group();
  }

  return ReduceOrder(result, ctx);
}

OrderSpec GeneralOrderSpec::DefaultSortSpec(const OrderContext& ctx) const {
  std::optional<OrderSpec> out = CoverConcrete(OrderSpec(), ctx);
  return out.has_value() ? *out : OrderSpec();
}

std::string GeneralOrderSpec::ToString(const ColumnNamer& namer) const {
  std::vector<std::string> group_strs;
  for (const Group& g : groups_) {
    std::vector<std::string> parts;
    for (const Element& e : g.elements) {
      std::string name = namer ? namer(e.col) : DefaultColumnName(e.col);
      if (e.fixed_dir.has_value()) {
        name += *e.fixed_dir == SortDirection::kDescending ? " DESC" : " ASC";
      }
      parts.push_back(std::move(name));
    }
    group_strs.push_back("{" + Join(parts, ", ") + "}");
  }
  return "general[" + Join(group_strs, " then ") + "]";
}

}  // namespace ordopt
