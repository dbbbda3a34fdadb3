// Quickstart: the minimal end-to-end flow of the paper's Figure 2.
//
//   1. The trusted central server creates a table and builds its VB-tree.
//   2. The propagation hub distributes the table (data + signed digests)
//      to a subscribed edge server in the background.
//   3. A client sends a range query to the edge server and receives the
//      result together with a verification object (VO).
//   4. The client authenticates the result using only the central
//      server's public key.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

int main() {
  // --- 1. Central server with a small product table -------------------
  CentralServer::Options options;
  options.db_name = "shopdb";
  auto central_or = CentralServer::Create(options);
  if (!central_or.ok()) {
    std::fprintf(stderr, "central server: %s\n",
                 central_or.status().ToString().c_str());
    return 1;
  }
  CentralServer& central = **central_or;

  Schema schema({{"id", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"category", TypeId::kString},
                 {"price", TypeId::kDouble}});
  if (!central.CreateTable("products", schema).ok()) return 1;

  std::vector<Tuple> rows;
  const char* names[] = {"anvil", "rope",  "dynamite", "magnet",
                         "rocket", "paint", "ladder",   "piano"};
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back(Tuple({Value::Int(i), Value::Str(names[i % 8]),
                          Value::Str(i % 2 == 0 ? "hardware" : "novelty"),
                          Value::Double(9.99 + static_cast<double>(i))}));
  }
  if (!central.LoadTable("products", rows).ok()) return 1;
  std::printf("central: loaded %zu products, VB-tree root digest %s...\n",
              rows.size(),
              central.tree("products")->root_digest().ToHex().substr(0, 16).c_str());

  // --- 2. Distribute to an edge server via the propagation hub ---------
  InProcessTransport net;
  EdgeServer edge("edge-west");  // declared before the hub: outlives it
  DistributionHub hub(&central, &net);  // background propagator running
  if (!hub.Subscribe(&edge).ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;  // barrier: wait until it is current
  std::printf("hub: distributed snapshot to %s (%llu bytes)\n",
              edge.name().c_str(),
              static_cast<unsigned long long>(
                  net.stats("central->edge:edge-west").bytes));

  // --- 3. Client queries the edge, with projection ---------------------
  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("products", schema);

  SelectQuery q;
  q.table = "products";
  q.range = KeyRange{10, 20};
  q.projection = {0, 1, 3};  // id, name, price (category filtered out)

  auto result = client.Query(&edge, q, /*now=*/1, &net);
  if (!result.ok()) return 1;

  // --- 4. Inspect the authenticated answer -----------------------------
  std::printf("\nclient: %zu rows, verification: %s\n", result->rows.size(),
              result->verification.ToString().c_str());
  std::printf("client: result %zu B + VO %zu B (%zu signed digests)\n\n",
              result->result_bytes, result->vo_bytes, result->vo_digests);
  for (const ResultRow& row : result->rows) {
    std::printf("  id=%-3lld name=%-10s price=%.2f\n",
                static_cast<long long>(row.key),
                row.values[1].AsString().c_str(), row.values[2].AsDouble());
  }
  return result->verification.ok() ? 0 : 1;
}
