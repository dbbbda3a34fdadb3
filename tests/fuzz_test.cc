#include <gtest/gtest.h>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Robustness fuzzing: random byte-level corruption of every wire format
/// must never crash, and corrupted responses must never authenticate.

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, MutatedQueryResponsesNeverVerify) {
  // Build an honest response once, then hammer it with random mutations.
  static std::unique_ptr<testutil::TestDb> db = testutil::MakeTestDb(500, 6, 8);
  ASSERT_NE(db, nullptr);

  SelectQuery q;
  q.table = db->table_name;
  q.range = KeyRange{100, 300};
  q.projection = {0, 2, 4};
  q.NormalizeProjection();
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());

  ByteWriter w;
  SerializeResultRows(out->rows, &w);
  size_t rows_end = w.size();
  out->vo.Serialize(&w);
  std::vector<uint8_t> honest = w.TakeBuffer();

  Rng rng(4000 + GetParam());
  Verifier verifier = db->MakeVerifier();
  int parse_failures = 0, verify_failures = 0, accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = honest;
    // 1-4 random byte mutations. The 4 bytes at rows_end hold the VO's
    // key_version, which the *raw* Verifier legitimately ignores (the
    // Client checks it against the key directory's validity windows) —
    // skip them here.
    size_t k = 1 + rng.Uniform(4);
    for (size_t i = 0; i < k; ++i) {
      size_t pos = rng.Uniform(bytes.size());
      if (pos >= rows_end && pos < rows_end + 4) continue;
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (bytes == honest) continue;  // mutation cancelled itself out

    ByteReader r((Slice(bytes)));
    auto rows_or = DeserializeResultRows(&r, db->schema, q.projection);
    if (!rows_or.ok()) {
      parse_failures++;
      continue;
    }
    auto vo_or = VerificationObject::Deserialize(&r);
    if (!vo_or.ok() || !r.AtEnd()) {
      parse_failures++;
      continue;
    }
    Status s = verifier.VerifySelect(q, *rows_or, *vo_or);
    if (s.ok()) {
      accepted++;
    } else {
      verify_failures++;
    }
  }
  // Every mutation must be caught at parse or verification time.
  EXPECT_EQ(accepted, 0);
  EXPECT_GT(parse_failures + verify_failures, 0);
}

TEST_P(WireFuzz, MutatedTreeSnapshotsNeverCrash) {
  static std::unique_ptr<testutil::TestDb> db =
      testutil::MakeTestDb(200, 4, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> honest = w.TakeBuffer();

  Rng rng(5000 + GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> bytes = honest;
    size_t k = 1 + rng.Uniform(8);
    for (size_t i = 0; i < k; ++i) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    // Truncate sometimes.
    if (rng.OneIn(3)) bytes.resize(rng.Uniform(bytes.size()) + 1);
    ByteReader r((Slice(bytes)));
    auto tree_or = VBTree::Deserialize(&r);
    if (tree_or.ok()) {
      // Structurally parseable: consistency checking must still work
      // without crashing (it may pass if the mutation hit only
      // signatures, which CheckDigestConsistency does not cover).
      (void)(*tree_or)->CheckDigestConsistency();
      (void)(*tree_or)->CheckStructure();
    }
  }
  SUCCEED();  // reaching here without UB/crash is the property
}

TEST_P(WireFuzz, MutatedQueriesNeverCrashEdge) {
  // One edge holding an unsplit table "t" (answered on the direct v2
  // wire) and a 3-shard table "s" (scattered on the edge, v3 wire).
  static std::unique_ptr<CentralServer> central = [] {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 8;
    opts.tree_opts.config.max_leaf = 8;
    auto c = CentralServer::Create(opts);
    if (!c.ok()) return std::unique_ptr<CentralServer>();
    Schema schema = testutil::MakeWideSchema(4);
    if (!(*c)->CreateTable("t", schema).ok() ||
        !(*c)->CreateTable("s", schema, {30, 60}).ok()) {
      return std::unique_ptr<CentralServer>();
    }
    Rng rng(1);
    if (!(*c)->LoadTable("t", testutil::MakeRows(schema, 100, &rng)).ok() ||
        !(*c)->LoadTable("s", testutil::MakeRows(schema, 100, &rng)).ok()) {
      return std::unique_ptr<CentralServer>();
    }
    return c.MoveValueUnsafe();
  }();
  ASSERT_NE(central, nullptr);
  static EdgeServer edge("fuzz-edge");
  static bool published = [&] {
    if (!testutil::Publish(central.get(), "t", &edge, nullptr).ok()) {
      return false;
    }
    auto map = central->TablePartitionMap("s");
    if (!map.ok()) return false;
    ByteWriter w;
    map->Serialize(&w);
    if (!edge.InstallPartitionMap(Slice(w.buffer())).ok()) return false;
    for (size_t i = 0; i < map->shards.size(); ++i) {
      if (!testutil::Publish(central.get(), map->shard_name(i), &edge, nullptr)
               .ok()) {
        return false;
      }
    }
    return true;
  }();
  ASSERT_TRUE(published);

  for (const char* table : {"t", "s"}) {
    QueryBatch batch;
    batch.table = table;
    for (int i = 0; i < 3; ++i) {
      SelectQuery q;
      q.range = KeyRange{10 + 20 * i, 50 + 20 * i};
      if (i == 1) q.projection = {0, 2};
      if (i == 2) {
        q.conditions.push_back(
            ColumnCondition{1, CompareOp::kNe, Value::Str("x")});
      }
      batch.queries.push_back(std::move(q));
    }
    ByteWriter w;
    SerializeQueryBatch(batch, &w);
    std::vector<uint8_t> honest = w.TakeBuffer();
    ASSERT_TRUE(edge.HandleQueryBatchBytes(Slice(honest)).ok()) << table;

    Rng rng(6000 + GetParam());
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> bytes = honest;
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
      if (rng.OneIn(4)) bytes.resize(rng.Uniform(bytes.size()) + 1);
      // The edge must answer or reject gracefully, never crash.
      (void)edge.HandleQueryBatchBytes(Slice(bytes));
    }
  }
  SUCCEED();
}

TEST_P(WireFuzz, MutatedDeltasNeverCorruptSilently) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  CentralServer& central = **central_or;
  Schema schema = testutil::MakeWideSchema(4);
  ASSERT_TRUE(central.CreateTable("t", schema).ok());
  Rng data_rng(1);
  ASSERT_TRUE(
      central.LoadTable("t", testutil::MakeRows(schema, 200, &data_rng)).ok());
  EdgeServer edge("edge");
  ASSERT_TRUE(testutil::Publish(&central, "t", &edge, nullptr).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        central
            .InsertTuple("t", testutil::MakeTuple(schema, 1000 + i, &data_rng))
            .ok());
  }
  auto batch = central.DeltaSince("t", 0);
  ASSERT_TRUE(batch.ok());
  ByteWriter delta_writer;
  batch->Serialize(&delta_writer);
  std::vector<uint8_t> delta = delta_writer.TakeBuffer();

  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("t", schema);
  Rng rng(7000 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    // Fresh replica for each mutated delta.
    ASSERT_TRUE(central.ExportTableSnapshot("t").ok());
    EdgeServer victim("victim");
    auto snap = central.ExportTableSnapshot("t");
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(victim.InstallSnapshot(Slice(*snap)).ok());
    // victim is already current; wind it back by installing the snapshot
    // from before the updates is not possible here, so instead apply the
    // mutated delta to the stale `edge_`-style replica: recreate it.
    std::vector<uint8_t> bytes = delta;
    bytes[rng.Uniform(bytes.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    Status s = edge.ApplyUpdateBatch(Slice(bytes));
    if (s.ok()) {
      // Replay accepted: any forged signatures will surface at query
      // time; full-tree query must not crash.
      SelectQuery q;
      q.table = "t";
      q.range = KeyRange{0, 2000};
      (void)client.Query(&edge, q, 1, nullptr);
      // Restore the replica for the next trial.
      ASSERT_TRUE(testutil::Publish(&central, "t", &edge, nullptr).ok());
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(0, 6));

TEST(AuditTest, CleanReplicaPassesAudit) {
  auto db = testutil::MakeTestDb(300, 4, 8);
  ASSERT_NE(db, nullptr);
  auto audited = db->tree->AuditSignatures(db->recoverer.get());
  ASSERT_TRUE(audited.ok());
  // Every node + every tuple signature.
  EXPECT_EQ(*audited, db->tree->node_count() + 300);
}

TEST(AuditTest, CorruptedSnapshotFailsAudit) {
  auto db = testutil::MakeTestDb(300, 4, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // Flip a byte inside the serialized stream repeatedly until we land on
  // a parseable-but-corrupt tree, then audit must catch it.
  Rng rng(11);
  int caught = 0, tried = 0;
  while (caught == 0 && tried < 200) {
    tried++;
    std::vector<uint8_t> bad = bytes;
    bad[rng.Uniform(bad.size())] ^= 0x01;
    ByteReader r((Slice(bad)));
    auto tree = VBTree::Deserialize(&r);
    if (!tree.ok()) continue;
    auto audit = (*tree)->AuditSignatures(db->recoverer.get());
    if (!audit.ok()) caught++;
  }
  EXPECT_GT(caught, 0);
}

TEST(AuditTest, AuditRequiresKey) {
  auto db = testutil::MakeTestDb(10, 4, 8);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->AuditSignatures(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vbtree
