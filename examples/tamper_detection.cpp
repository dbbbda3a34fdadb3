// Tamper detection: plays the "hacked edge server" of §3.1 and shows
// that every integrity violation the paper targets is caught by the VO,
// while data outside the query stays unaffected.
//
// Build & run:  ./build/examples/tamper_detection
#include <cstdio>

#include "common/random.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

namespace {

Schema AccountSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"owner", TypeId::kString},
                 {"balance", TypeId::kDouble},
                 {"branch", TypeId::kString}});
}

void Report(const char* scenario, const Status& verification,
            bool expect_failure) {
  bool failed = verification.IsVerificationFailure();
  std::printf("  %-46s -> %s%s\n", scenario,
              failed ? "REJECTED: " : "accepted",
              failed ? verification.message().c_str() : "");
  if (failed != expect_failure) {
    std::printf("  UNEXPECTED OUTCOME\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  auto central_or = CentralServer::Create({});
  if (!central_or.ok()) return 1;
  CentralServer& central = **central_or;
  Schema schema = AccountSchema();
  if (!central.CreateTable("accounts", schema).ok()) return 1;

  Rng rng(7);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 500; ++i) {
    rows.push_back(Tuple({Value::Int(i), Value::Str(rng.NextString(12)),
                          Value::Double(1000.0 + static_cast<double>(i)),
                          Value::Str(i % 2 == 0 ? "north" : "south")}));
  }
  if (!central.LoadTable("accounts", rows).ok()) return 1;

  InProcessTransport net;
  EdgeServer edge("edge-sketchy");
  DistributionHub hub(&central, &net);
  if (!hub.Subscribe(&edge).ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;
  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("accounts", schema);

  SelectQuery q;
  q.table = "accounts";
  q.range = KeyRange{100, 150};

  std::printf("Scenario 0: honest edge server\n");
  auto honest = client.Query(&edge, q, 1, nullptr);
  if (!honest.ok()) return 1;
  Report("honest answer", honest->verification, false);

  std::printf("\nScenario 1: hacker inflates a balance in the replica\n");
  if (!edge.TamperValueByKey("accounts", 123, 2, Value::Double(9e9)).ok()) {
    return 1;
  }
  auto inflated = client.Query(&edge, q, 1, nullptr);
  if (!inflated.ok()) return 1;
  Report("query covering the tampered row", inflated->verification, true);

  auto elsewhere_q = q;
  elsewhere_q.range = KeyRange{300, 350};
  auto elsewhere = client.Query(&edge, elsewhere_q, 1, nullptr);
  if (!elsewhere.ok()) return 1;
  Report("query not covering it", elsewhere->verification, false);

  // Heal the replica for the remaining scenarios: force a snapshot
  // re-ship (the replica version alone looks current, so the hub must be
  // told the state is corrupt).
  if (!hub.ForceSnapshot("edge-sketchy").ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;

  std::printf("\nScenario 2: edge fabricates an extra result row\n");
  edge.set_response_tamper(ResponseTamper::kInjectRow);
  auto injected = client.Query(&edge, q, 1, nullptr);
  if (!injected.ok()) return 1;
  Report("spurious tuple in the answer", injected->verification, true);

  std::printf("\nScenario 3: edge silently drops a result row\n");
  edge.set_response_tamper(ResponseTamper::kDropRow);
  auto dropped = client.Query(&edge, q, 1, nullptr);
  if (!dropped.ok()) return 1;
  Report("missing tuple in the answer", dropped->verification, true);

  std::printf("\nScenario 4: edge rewrites a value in transit\n");
  edge.set_response_tamper(ResponseTamper::kModifyValue);
  auto rewritten = client.Query(&edge, q, 1, nullptr);
  if (!rewritten.ok()) return 1;
  Report("modified attribute value", rewritten->verification, true);

  edge.set_response_tamper(ResponseTamper::kNone);
  auto back_to_honest = client.Query(&edge, q, 1, nullptr);
  if (!back_to_honest.ok()) return 1;
  std::printf("\nScenario 5: back to honest\n");
  Report("honest again", back_to_honest->verification, false);

  std::printf("\nAll tampering scenarios behaved as the paper predicts.\n");
  return 0;
}
