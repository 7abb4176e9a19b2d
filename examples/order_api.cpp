// Using the order-optimization core directly — the four fundamental
// operations of §4 (Reduce, Test, Cover, Homogenize) plus the §7 general
// orders — without the SQL engine. This is the API a query optimizer
// embeds: Postgres pathkeys / Calcite collation traits cover parts of it;
// this library is a complete standalone implementation of the paper's
// operation set.

#include <cstdio>

#include "orderopt/general_order.h"
#include "orderopt/operations.h"

using namespace ordopt;

namespace {

// A tiny naming scheme for the demo: table 0 = "a", 1 = "b".
std::string Name(const ColumnId& c) {
  static const char* tables[] = {"a", "b"};
  static const char* cols[] = {"x", "y", "z"};
  return std::string(tables[c.table]) + "." + cols[c.column];
}

void Show(const char* label, const OrderSpec& spec) {
  std::printf("%-46s %s\n", label, spec.ToString(Name).c_str());
}

}  // namespace

int main() {
  const ColumnId ax(0, 0), ay(0, 1), az(0, 2);
  const ColumnId bx(1, 0), by(1, 1);

  std::printf("== Reduce Order (4.1) ==\n");
  {
    // Applied predicates: a.x = 10 and a.y = b.y; FD: {a.z} is a key.
    OrderFacts ctx;
    ctx.eq.AddConstant(ax, Value::Int(10));
    ctx.eq.AddEquivalence(ay, by);
    ctx.fds.AddKey(ColumnSet{az}, ColumnSet{ax, ay, az});

    OrderSpec spec{{ax}, {by}, {az}, {ay}};
    Show("input (a.x = 10, a.y = b.y, key a.z):", spec);
    Show("reduced:", ReduceOrder(spec, ctx));
    // a.x drops (constant), b.y rewrites to its class head a.y, and the
    // trailing a.y drops (duplicate); a.z stays; nothing follows a key.
  }

  std::printf("\n== Test Order (4.2) ==\n");
  {
    OrderFacts ctx;
    ctx.eq.AddConstant(ax, Value::Int(10));
    OrderSpec interesting{{ax}, {ay}};
    OrderSpec property{{ay}};
    std::printf("interesting %s vs property %s: %s\n",
                interesting.ToString(Name).c_str(),
                property.ToString(Name).c_str(),
                TestOrder(interesting, property, ctx) ? "satisfied"
                                                      : "needs a sort");
  }

  std::printf("\n== Cover Order (4.3) ==\n");
  {
    OrderFacts ctx;
    auto cover = CoverOrder(OrderSpec{{az}}, OrderSpec{{az}, {ay}}, ctx);
    Show("cover of (a.z) and (a.z, a.y):",
         cover.has_value() ? *cover : OrderSpec());
  }

  std::printf("\n== Homogenize Order (4.4) ==\n");
  {
    // ORDER BY a.x, b.y over a join on a.x = b.x, pushed to table b.
    EquivalenceClasses future;
    future.AddEquivalence(ax, bx);
    OrderFacts ctx;
    auto hom = HomogenizeOrder(OrderSpec{{ax}, {by}}, ColumnSet{bx, by},
                               future, ctx);
    Show("(a.x, b.y) homogenized to table b:",
         hom.has_value() ? *hom : OrderSpec());
  }

  std::printf("\n== General orders / degrees of freedom (7) ==\n");
  {
    OrderFacts ctx;
    ctx.fds.Add(ColumnSet{ax}, ColumnSet{ay});  // {a.x} -> {a.y}
    GeneralOrderSpec group = GeneralOrderSpec::ForGrouping({ax, ay, az});
    OrderSpec candidate{{az, SortDirection::kDescending}, {ax}};
    std::printf("GROUP BY a.x, a.y, a.z satisfied by %s: %s\n",
                candidate.ToString(Name).c_str(),
                group.Satisfies(candidate, ctx) ? "yes" : "no");
    auto cover = group.CoverConcrete(
        OrderSpec{{az, SortDirection::kDescending}}, ctx);
    Show("one sort for GROUP BY + ORDER BY a.z DESC:",
         cover.has_value() ? *cover : OrderSpec());
  }
  return 0;
}
