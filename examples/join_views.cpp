// Authenticated joins via materialized views (§3.3 Join): since edge
// queries are mostly known in advance, the central server materializes
// each join and builds a VB-tree over the view; clients then verify join
// results exactly like base-table results. The example also exercises
// incremental view maintenance under inserts and deletes.
//
// Build & run:  ./build/examples/join_views
#include <cstdio>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

int main() {
  auto central_or = CentralServer::Create({});
  if (!central_or.ok()) return 1;
  CentralServer& central = **central_or;

  // orders(id, customer_ref, item)  ⋈  customers(id, name, tier)
  Schema orders({{"id", TypeId::kInt64},
                 {"customer_ref", TypeId::kInt64},
                 {"item", TypeId::kString}});
  Schema customers({{"id", TypeId::kInt64},
                    {"name", TypeId::kString},
                    {"tier", TypeId::kString}});
  if (!central.CreateTable("orders", orders).ok()) return 1;
  if (!central.CreateTable("customers", customers).ok()) return 1;

  std::vector<Tuple> customer_rows, order_rows;
  const char* tiers[] = {"gold", "silver", "bronze"};
  for (int64_t c = 0; c < 30; ++c) {
    customer_rows.push_back(Tuple({Value::Int(c),
                                   Value::Str("cust" + std::to_string(c)),
                                   Value::Str(tiers[c % 3])}));
  }
  for (int64_t o = 0; o < 200; ++o) {
    order_rows.push_back(Tuple({Value::Int(o), Value::Int(o % 30),
                                Value::Str("item" + std::to_string(o % 17))}));
  }
  if (!central.LoadTable("orders", order_rows).ok()) return 1;
  if (!central.LoadTable("customers", customer_rows).ok()) return 1;

  JoinSpec spec;
  spec.view_name = "orders_with_customers";
  spec.left_table = "orders";
  spec.right_table = "customers";
  spec.left_col = 1;   // orders.customer_ref
  spec.right_col = 0;  // customers.id
  if (!central.CreateJoinView(spec).ok()) return 1;
  auto view = central.GetJoinView(spec.view_name);
  if (!view.ok()) return 1;
  std::printf("materialized %s: %zu join rows, schema of %zu columns\n",
              spec.view_name.c_str(), (*view)->row_count(),
              (*view)->schema().num_columns());

  // Distribute (tables and the view) and query it with verification.
  InProcessTransport net;
  EdgeServer edge("edge-1");
  DistributionHub hub(&central, &net);  // views ship by snapshot
  if (!hub.Subscribe(&edge).ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;
  Client client(central.db_name(), central.key_directory());
  auto info = central.DescribeTable(spec.view_name);
  if (!info.ok()) return 1;
  client.RegisterTable(spec.view_name, (*info)->schema);

  SelectQuery q;
  q.table = spec.view_name;
  q.range = KeyRange{0, 1000};
  // Project: view_id, order item, customer name, customer tier.
  q.projection = {0, 3, 5, 6};
  auto result = client.Query(&edge, q, 1, nullptr);
  if (!result.ok()) return 1;
  std::printf("join query: %zu rows, verification: %s\n", result->rows.size(),
              result->verification.ToString().c_str());
  for (size_t i = 0; i < 3 && i < result->rows.size(); ++i) {
    const ResultRow& row = result->rows[i];
    std::printf("  view_id=%-4lld item=%-8s customer=%-8s tier=%s\n",
                static_cast<long long>(row.key),
                row.values[1].AsString().c_str(),
                row.values[2].AsString().c_str(),
                row.values[3].AsString().c_str());
  }
  if (!result->verification.ok()) return 1;

  // --- incremental maintenance -----------------------------------------
  std::printf("\ninserting one order and deleting customer 5...\n");
  if (!central
           .InsertTuple("orders", Tuple({Value::Int(777), Value::Int(12),
                                         Value::Str("surprise")}))
           .ok()) {
    return 1;
  }
  if (!central.DeleteRange("customers", 5, 5).ok()) return 1;
  view = central.GetJoinView(spec.view_name);
  if (!view.ok()) return 1;
  std::printf("view now has %zu rows (was 200; +1 insert, -%d for customer 5)\n",
              (*view)->row_count(), 200 / 30 + 1);

  // The view's version advanced with the maintenance, so the hub
  // re-ships its snapshot; the refreshed view still authenticates.
  if (!hub.SyncAll().ok()) return 1;
  auto after = client.Query(&edge, q, 1, nullptr);
  if (!after.ok()) return 1;
  std::printf("after maintenance: %zu rows, verification: %s\n",
              after->rows.size(), after->verification.ToString().c_str());
  return after->verification.ok() ? 0 : 1;
}
