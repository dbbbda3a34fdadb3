#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "edge/central_server.h"
#include "edge/edge_server.h"
#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Adversarial wire-format tests for the batch response formats (the
/// pooled v2 and the sharded v3 that embeds one v2 group per shard) and
/// the pool-referencing VerificationObject encoding:
/// truncated, bit-flipped and index-out-of-range buffers must come back
/// as a Status — never a crash, hang or unchecked huge allocation. The
/// suite is part of the globbed tier-1 set, so the ASan/UBSan CI job
/// runs every case instrumented.

class BatchSerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 8;
    opts.tree_opts.config.max_leaf = 8;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();
    schema_ = testutil::MakeWideSchema(6);
    ASSERT_TRUE(central_->CreateTable("t", schema_).ok());
    Rng rng(3);
    ASSERT_TRUE(
        central_->LoadTable("t", testutil::MakeRows(schema_, 400, &rng)).ok());
    edge_ = std::make_unique<EdgeServer>("edge-serde");
    ASSERT_TRUE(testutil::Publish(central_.get(), "t", edge_.get()).ok());

    batch_.table = "t";
    for (int i = 0; i < 6; ++i) {
      SelectQuery q;
      q.table = "t";
      q.range = KeyRange{50 + 10 * i, 120 + 10 * i};
      if (i % 2 == 0) q.projection = {0, 1, 3};
      q.NormalizeProjection();
      batch_.queries.push_back(std::move(q));
    }
    auto resp = edge_->HandleQueryBatch(batch_);
    ASSERT_TRUE(resp.ok());
    ByteWriter w2(1 << 12);
    SerializeQueryBatchResponse(*resp, &w2);
    honest_v2_ = w2.TakeBuffer();

    // A 4-shard table (splits at 100/200/300) on the same edge: its
    // batches come back as v3, one embedded v2 group per planned shard.
    ASSERT_TRUE(central_->CreateTable("s", schema_, {100, 200, 300}).ok());
    ASSERT_TRUE(
        central_->LoadTable("s", testutil::MakeRows(schema_, 400, &rng)).ok());
    auto map = central_->TablePartitionMap("s");
    ASSERT_TRUE(map.ok());
    ASSERT_EQ(map->shards.size(), 4u);
    ByteWriter mw;
    map->Serialize(&mw);
    ASSERT_TRUE(edge_->InstallPartitionMap(Slice(mw.buffer())).ok());
    for (size_t i = 0; i < map->shards.size(); ++i) {
      ASSERT_TRUE(
          testutil::Publish(central_.get(), map->shard_name(i), edge_.get())
              .ok());
    }
    sharded_batch_.table = "s";
    for (int i = 0; i < 6; ++i) {
      SelectQuery q;
      q.table = "s";
      q.range = KeyRange{50 + 60 * i, 120 + 60 * i};
      if (i % 2 == 0) q.projection = {0, 1, 3};
      q.NormalizeProjection();
      sharded_batch_.queries.push_back(std::move(q));
    }
    auto sharded = edge_->HandleQueryBatchSharded(sharded_batch_);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ(sharded->groups.size(), 4u);
    ByteWriter w3(1 << 12);
    SerializeShardedQueryBatchResponse(*sharded, &w3);
    honest_v3_ = w3.TakeBuffer();
  }

  /// Parses `bytes` as a batch response — v3 through the sharded decoder,
  /// anything else through the v2 one; the property under test is only
  /// that this returns (any Status) instead of crashing.
  Status Parse(const std::vector<uint8_t>& bytes, bool sharded = false) {
    ByteReader r((Slice(bytes)));
    if (sharded) {
      auto out = DeserializeShardedQueryBatchResponse(
          &r, schema_, sharded_batch_.queries);
      return out.ok() ? Status::OK() : out.status();
    }
    auto out = DeserializeQueryBatchResponse(&r, schema_, batch_.queries);
    return out.ok() ? Status::OK() : out.status();
  }

  /// The honest buffers every wire-level sweep runs over.
  struct Wire {
    const std::vector<uint8_t>* honest;
    bool sharded;
  };
  std::vector<Wire> Wires() const {
    return {{&honest_v2_, false}, {&honest_v3_, true}};
  }

  Schema schema_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  QueryBatch batch_;
  QueryBatch sharded_batch_;
  std::vector<uint8_t> honest_v2_;
  std::vector<uint8_t> honest_v3_;
};

TEST_F(BatchSerdeTest, HonestBuffersParse) {
  EXPECT_TRUE(Parse(honest_v2_).ok());
  Status v3 = Parse(honest_v3_, /*sharded=*/true);
  EXPECT_TRUE(v3.ok()) << v3.ToString();
}

TEST_F(BatchSerdeTest, UnknownWireVersionRejected) {
  for (uint8_t v : {uint8_t{0}, uint8_t{1}, uint8_t{3}, uint8_t{0x7F},
                    uint8_t{0xFF}}) {
    std::vector<uint8_t> bytes = honest_v2_;
    bytes[0] = v;
    Status s = Parse(bytes);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

TEST_F(BatchSerdeTest, TruncationsReturnStatus) {
  // Cutting the buffer short must surface kCorruption (truncated reads).
  // Every length is swept through the header/pool region where framing
  // decisions live; the long row/VO payload tail is sampled — a reader
  // trusting a count before the bytes exist fails at the region where
  // the count is consumed, not at one magic payload byte.
  for (const Wire& wire : Wires()) {
    const std::vector<uint8_t>* honest = wire.honest;
    std::vector<size_t> lengths;
    for (size_t len = 0; len < std::min<size_t>(honest->size(), 768); ++len) {
      lengths.push_back(len);
    }
    for (size_t len = 768; len < honest->size(); len += 23) {
      lengths.push_back(len);
    }
    for (size_t back = 1; back <= 64 && back < honest->size(); ++back) {
      lengths.push_back(honest->size() - back);
    }
    for (size_t len : lengths) {
      std::vector<uint8_t> bytes(honest->begin(), honest->begin() + len);
      Status s = Parse(bytes, wire.sharded);
      EXPECT_FALSE(s.ok()) << "truncation to " << len << " parsed";
    }
  }
}

TEST_F(BatchSerdeTest, RandomBitFlipsNeverCrash) {
  Rng rng(99);
  for (const Wire& wire : Wires()) {
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<uint8_t> bytes = *wire.honest;
      size_t k = 1 + rng.Uniform(4);
      for (size_t i = 0; i < k; ++i) {
        bytes[rng.Uniform(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.Uniform(255));
      }
      // Any Status is fine; crashing is the bug.
      (void)Parse(bytes, wire.sharded);
    }
  }
  SUCCEED();
}

TEST_F(BatchSerdeTest, PoolIndexOutOfRangeIsCorruption) {
  // Build a pooled VO against a pool that is too short for its indices:
  // a hostile edge referencing entries past the signature table must get
  // kCorruption, not an out-of-bounds read.
  auto resp = edge_->HandleQueryBatch(batch_);
  ASSERT_TRUE(resp.ok());
  const VerificationObject& vo = resp->responses[0].vo();

  SignaturePool pool;
  ByteWriter body;
  vo.SerializePooled(&body, &pool);
  ASSERT_GT(pool.size(), 0u);

  // Deserialize the same body against an EMPTY pool: every reference is
  // out of range.
  ByteReader r((Slice(body.buffer())));
  SignaturePool empty;
  auto out = VerificationObject::DeserializePooled(&r, empty);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();

  // And against a pool with exactly one entry when more are referenced.
  if (pool.size() > 1) {
    SignaturePool one;
    one.Intern(*pool.Get(0));
    ByteReader r2((Slice(body.buffer())));
    auto out2 = VerificationObject::DeserializePooled(&r2, one);
    ASSERT_FALSE(out2.ok());
    EXPECT_TRUE(out2.status().IsCorruption()) << out2.status().ToString();
  }
}

TEST_F(BatchSerdeTest, OversizedPoolIndexInMessageIsCorruption) {
  // Patch the first VO signature reference inside an honest v2 message to
  // a huge varint. Locating it robustly: re-serialize with a tracking
  // pool to find the byte offset of the first pooled reference.
  auto resp = edge_->HandleQueryBatch(batch_);
  ASSERT_TRUE(resp.ok());

  // Layout: u8 version | u64 replica_version | varint count | pool | body.
  // Find where the pool ends by parsing it like the deserializer does.
  ByteReader r((Slice(honest_v2_)));
  ASSERT_TRUE(r.ReadU8().ok());
  ASSERT_TRUE(r.ReadU64().ok());
  ASSERT_TRUE(r.ReadVarint().ok());
  auto pool = SignaturePool::Deserialize(&r);
  ASSERT_TRUE(pool.ok());
  size_t body_start = r.position();

  // The first body byte is the error flag (0), then the rows block; the
  // VO's first signature reference sits somewhere after. Instead of
  // hand-computing the offset, splice a fresh body whose references are
  // all shifted past the pool size.
  SignaturePool big;
  // Push the pool indices out of range by pre-interning junk so every
  // honest index is offset.
  for (size_t i = 0; i < pool->size() + 8; ++i) {
    big.Intern(Signature{static_cast<uint8_t>(i), 0xAB,
                         static_cast<uint8_t>(i >> 3)});
  }
  ByteWriter patched;
  patched.PutBytes(Slice(honest_v2_.data(), body_start));
  for (const QueryResponse& qr : resp->responses) {
    patched.PutU8(0);
    SerializeResultRows(qr.rows(), &patched);
    qr.vo().SerializePooled(&patched, &big);  // indices >= pool->size()
  }
  // Trailer copied from the honest tail (same field count).
  // Parsing must fail with kCorruption at the first out-of-range index,
  // well before the missing trailer could matter.
  Status s = Parse(patched.TakeBuffer());
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(BatchSerdeTest, PooledVORoundTripsBitExact) {
  auto resp = edge_->HandleQueryBatch(batch_);
  ASSERT_TRUE(resp.ok());
  for (const QueryResponse& qr : resp->responses) {
    SignaturePool pool;
    ByteWriter body;
    qr.vo().SerializePooled(&body, &pool);

    ByteWriter pool_bytes;
    pool.Serialize(&pool_bytes);
    ByteReader pr((Slice(pool_bytes.buffer())));
    auto decoded_pool = SignaturePool::Deserialize(&pr);
    ASSERT_TRUE(decoded_pool.ok());

    ByteReader br((Slice(body.buffer())));
    auto decoded = VerificationObject::DeserializePooled(&br, *decoded_pool);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ByteWriter raw_a, raw_b;
    qr.vo().Serialize(&raw_a);
    decoded->Serialize(&raw_b);
    EXPECT_EQ(raw_a.buffer(), raw_b.buffer());
  }
}

TEST_F(BatchSerdeTest, TruncatedAndFlippedPooledVONeverCrashes) {
  auto resp = edge_->HandleQueryBatch(batch_);
  ASSERT_TRUE(resp.ok());
  SignaturePool pool;
  ByteWriter body;
  resp->responses[0].vo().SerializePooled(&body, &pool);
  std::vector<uint8_t> honest(body.buffer());

  for (size_t len = 0; len < honest.size(); ++len) {
    std::vector<uint8_t> bytes(honest.begin(), honest.begin() + len);
    ByteReader r((Slice(bytes)));
    auto out = VerificationObject::DeserializePooled(&r, pool);
    EXPECT_FALSE(out.ok()) << "truncation to " << len << " parsed";
  }
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = honest;
    bytes[rng.Uniform(bytes.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    ByteReader r((Slice(bytes)));
    (void)VerificationObject::DeserializePooled(&r, pool);
  }
  SUCCEED();
}

/// First-seen-order interner over std::map: the reference the pool's
/// open-addressed index must agree with, entry for entry and byte for byte.
struct ReferenceInterner {
  std::map<Signature, uint32_t> index;
  std::vector<Signature> entries;

  uint32_t Intern(const Signature& sig) {
    auto [it, inserted] =
        index.emplace(sig, static_cast<uint32_t>(entries.size()));
    if (inserted) entries.push_back(sig);
    return it->second;
  }

  std::vector<uint8_t> Serialize() const {
    ByteWriter w;
    w.PutVarint(entries.size());
    for (const Signature& s : entries) w.PutLengthPrefixed(s);
    return w.buffer();
  }
};

/// A batch-like intern sequence: 16- and 128-byte signatures, many
/// sharing long prefixes, about half of the calls repeating an earlier one.
std::vector<Signature> MixedInternSequence(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Signature> seq;
  seq.reserve(n);
  while (seq.size() < n) {
    if (!seq.empty() && rng.OneIn(2)) {
      seq.push_back(seq[rng.Uniform(seq.size())]);
      continue;
    }
    Signature sig(rng.OneIn(2) ? 16 : 128, 0);
    if (!seq.empty() && rng.OneIn(2)) {
      // Copy a prefix of an earlier signature, then diverge.
      const Signature& base = seq[rng.Uniform(seq.size())];
      const size_t keep = rng.Uniform(std::min(base.size(), sig.size()) + 1);
      std::copy(base.begin(), base.begin() + keep, sig.begin());
      for (size_t i = keep; i < sig.size(); ++i) {
        sig[i] = static_cast<uint8_t>(rng.Next());
      }
    } else {
      for (auto& b : sig) b = static_cast<uint8_t>(rng.Next());
    }
    seq.push_back(std::move(sig));
  }
  return seq;
}

TEST(SignaturePoolIndexTest, MatchesReferenceInternerOnMixedSequence) {
  const std::vector<Signature> seq = MixedInternSequence(6000, 11);
  SignaturePool pool;
  ReferenceInterner ref;
  std::map<Signature, uint32_t> first_index;
  size_t repeats = 0;
  for (const Signature& sig : seq) {
    const uint32_t got = pool.Intern(sig);
    ASSERT_EQ(got, ref.Intern(sig));
    auto [it, inserted] = first_index.emplace(sig, got);
    if (!inserted) {
      ++repeats;
      ASSERT_EQ(got, it->second) << "a repeat must return its first index";
    }
  }
  EXPECT_GT(repeats, seq.size() / 3);

  ASSERT_EQ(pool.size(), ref.entries.size());
  size_t bytes = 0;
  for (uint32_t i = 0; i < pool.size(); ++i) {
    ASSERT_NE(pool.Get(i), nullptr);
    EXPECT_EQ(*pool.Get(i), ref.entries[i]);
    bytes += ref.entries[i].size();
  }
  EXPECT_EQ(pool.Get(pool.size()), nullptr);
  EXPECT_EQ(pool.entry_bytes(), bytes);

  ByteWriter w;
  pool.Serialize(&w);
  EXPECT_EQ(w.buffer(), ref.Serialize());
}

TEST(SignaturePoolIndexTest, DeserializedPoolInternsToExistingEntries) {
  const std::vector<Signature> seq = MixedInternSequence(500, 12);
  SignaturePool built;
  for (const Signature& sig : seq) built.Intern(sig);
  ByteWriter w;
  built.Serialize(&w);
  ByteReader r((Slice(w.buffer())));
  auto pool = SignaturePool::Deserialize(&r);
  ASSERT_TRUE(pool.ok());
  ASSERT_EQ(pool->size(), built.size());
  EXPECT_EQ(pool->entry_bytes(), built.entry_bytes());
  for (const Signature& sig : seq) {
    EXPECT_EQ(pool->Intern(sig), built.Intern(sig));
  }
  EXPECT_EQ(pool->size(), built.size());
  const Signature fresh(16, 0xEE);
  EXPECT_EQ(pool->Intern(fresh), built.size());
}

/// FNV-1a: a compact fingerprint of an encoded buffer for the goldens.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST_F(BatchSerdeTest, EncodingIsByteIdenticalToGolden) {
  // The encoder reads each answer in place, shared with the VO cache.
  // It must emit exactly the bytes of the earlier encoder, which
  // serialized a private copy of every answer: the goldens below are that
  // encoder's output on this fixture, for a fresh execution (cache
  // bypassed) and a VO-cache hit, on both wires. exec_us is wall-clock
  // time, so it is zeroed before encoding; every other trailer field is
  // deterministic on a quiesced replica.
  struct Golden {
    bool bypass_vo_cache;
    size_t v2_size;
    uint64_t v2_fnv;
    size_t v3_size;
    uint64_t v3_fnv;
  };
  const Golden goldens[] = {
      {true, 43370, 0x64876330bb5f7e4eull, 46275, 0x710cd8f43ef3dd1dull},
      {false, 43369, 0xa8eb957c1671d98cull, 46275, 0x4cc8fa45796d90d0ull},
  };
  for (const Golden& g : goldens) {
    auto v2 = edge_->HandleQueryBatch(batch_, g.bypass_vo_cache);
    ASSERT_TRUE(v2.ok());
    v2->stats.exec_us = 0;
    ByteWriter w2;
    SerializeQueryBatchResponse(*v2, &w2);
    EXPECT_EQ(w2.size(), g.v2_size) << "bypass=" << g.bypass_vo_cache;
    EXPECT_EQ(Fnv1a(w2.buffer()), g.v2_fnv) << "bypass=" << g.bypass_vo_cache;

    auto v3 = edge_->HandleQueryBatchSharded(sharded_batch_,
                                             g.bypass_vo_cache);
    ASSERT_TRUE(v3.ok());
    for (ShardBatchGroup& group : v3->groups) group.resp.stats.exec_us = 0;
    ByteWriter w3;
    SerializeShardedQueryBatchResponse(*v3, &w3);
    EXPECT_EQ(w3.size(), g.v3_size) << "bypass=" << g.bypass_vo_cache;
    EXPECT_EQ(Fnv1a(w3.buffer()), g.v3_fnv) << "bypass=" << g.bypass_vo_cache;
  }
}

}  // namespace
}  // namespace vbtree
