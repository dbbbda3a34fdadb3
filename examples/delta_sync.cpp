// Delta synchronization: the §3.4 "propagate the changes periodically"
// pattern, using the op-log delta mechanism instead of full snapshots.
//
// The central server applies a stream of updates; the DistributionHub's
// propagator batches the logged ops and ships them to the subscribed
// edge. Each delta carries only the changed tuples and the signatures
// the central server produced — the edge replays the structural changes
// itself and ends up bit-identical. An edge-side signature audit
// confirms replica health without any client traffic.
//
// Build & run:  ./build/examples/delta_sync
#include <cstdio>

#include "common/random.h"
#include "crypto/sim_signer.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

int main() {
  auto central_or = CentralServer::Create({});
  if (!central_or.ok()) return 1;
  CentralServer& central = **central_or;

  Schema schema({{"id", TypeId::kInt64},
                 {"device", TypeId::kString},
                 {"status", TypeId::kString}});
  if (!central.CreateTable("fleet", schema).ok()) return 1;
  Rng rng(3);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back(Tuple({Value::Int(i), Value::Str("dev-" + std::to_string(i)),
                          Value::Str("ok")}));
  }
  if (!central.LoadTable("fleet", rows).ok()) return 1;

  InProcessTransport net;
  EdgeServer edge("edge-1");
  PropagationOptions popts;
  popts.policy = ShipPolicy::kDeltaPreferred;
  DistributionHub hub(&central, &net, popts);
  if (!hub.Subscribe(&edge).ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;
  uint64_t snapshot_bytes = net.stats("central->edge:edge-1").bytes;
  std::printf("initial snapshot: %.1f KB (5000 rows)\n",
              snapshot_bytes / 1e3);

  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("fleet", schema);

  // --- five sync rounds of updates + delta pull -------------------------
  int64_t next_id = 5000;
  for (int round = 1; round <= 5; ++round) {
    // A burst of updates at the central server.
    for (int i = 0; i < 40; ++i) {
      if (!central
               .InsertTuple("fleet",
                            Tuple({Value::Int(next_id++),
                                   Value::Str("dev-" + std::to_string(next_id)),
                                   Value::Str("provisioned")}))
               .ok()) {
        return 1;
      }
    }
    if (!central.DeleteRange("fleet", round * 100, round * 100 + 9).ok()) {
      return 1;
    }

    // Periodic propagation: the hub ships the pending ops as a delta.
    if (!hub.SyncAll().ok()) return 1;
    uint64_t delta_bytes =
        net.stats("central->edge:edge-1:delta").bytes;
    bool identical = edge.tree("fleet")->root_digest() ==
                     central.tree("fleet")->root_digest();
    std::printf(
        "round %d: 41 ops -> delta total %.1f KB; edge %s central "
        "(version %llu)\n",
        round, delta_bytes / 1e3,
        identical ? "bit-identical to" : "DIVERGED from",
        static_cast<unsigned long long>(edge.TableVersion("fleet")));
    if (!identical) return 1;

    // A verified client read after each round.
    SelectQuery q;
    q.table = "fleet";
    q.range = KeyRange{round * 100 - 20, round * 100 + 30};
    auto r = client.Query(&edge, q, 1, &net);
    if (!r.ok() || !r->verification.ok()) {
      std::printf("client verification failed!\n");
      return 1;
    }
  }

  // --- edge self-audit ---------------------------------------------------
  auto recoverer = central.key_directory()->RecovererFor(
      central.current_key_version(), 1);
  if (!recoverer.ok()) return 1;
  auto audited = edge.tree("fleet")->AuditSignatures(recoverer->get());
  if (!audited.ok()) {
    std::printf("edge audit failed: %s\n",
                audited.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nedge self-audit: %zu signatures verified against the public key\n",
      *audited);
  std::printf(
      "delta sync shipped %.1f KB total vs %.1f KB per full snapshot.\n",
      net.stats("central->edge:edge-1:delta").bytes / 1e3,
      snapshot_bytes / 1e3);
  return 0;
}
