// Soundness and concurrency tests for the client verification fast path:
// the byte-keyed RecoveredDigestCache, the pooled once-per-batch
// recovery, the signed-top memo, and the atomic CryptoCounters the
// parallel BatchVerifier ticks from many workers at once.
//
// The adversarial cases pin the §6 soundness argument: a tampered
// signature — bit flip, swapped pool index, tamper hidden behind an
// unchanged replica version — can never ride a cached digest to a
// passing verification.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/commutative_hash.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/sim_signer.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/query_service/batch_verifier.h"
#include "edge/query_service/query_service.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

// ---------------------------------------------------------------------------
// RecoveredDigestCache unit behavior.
// ---------------------------------------------------------------------------

TEST(RecoveredDigestCacheTest, HitMissAndDomainIsolation) {
  RecoveredDigestCache cache;
  Rng rng(1);
  SimSigner signer(7);
  Signature sig = signer.Sign(RandomDigest(&rng)).ValueOrDie();
  Digest d = RandomDigest(&rng), out;
  CryptoCounters c;

  EXPECT_FALSE(cache.Lookup(1, sig, &out, &c));
  cache.Insert(1, sig, d, &c);
  ASSERT_TRUE(cache.Lookup(1, sig, &out, &c));
  EXPECT_EQ(out, d);
  // Same bytes under a different signing-key version must MISS: recovery
  // is only a pure function of the bytes under one public key.
  EXPECT_FALSE(cache.Lookup(2, sig, &out, &c));
  EXPECT_EQ(c.digest_cache_hits, 1u);
  EXPECT_EQ(c.digest_cache_misses, 2u);

  RecoveredDigestCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(RecoveredDigestCacheTest, BoundedWithEvictionCounters) {
  RecoveredDigestCache::Options opts;
  opts.capacity = 64;
  opts.shards = 4;
  RecoveredDigestCache cache(opts);
  Rng rng(2);
  CryptoCounters c;
  for (int i = 0; i < 1000; ++i) {
    Signature sig(16);
    for (auto& b : sig) b = static_cast<uint8_t>(rng.Next());
    cache.Insert(1, sig, RandomDigest(&rng), &c);
  }
  RecoveredDigestCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, 64u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.evictions, c.digest_cache_evictions.load());
  EXPECT_EQ(s.entries + s.evictions, 1000u);
}

TEST(RecoveredDigestCacheTest, ZeroCapacityDisablesCaching) {
  RecoveredDigestCache::Options opts;
  opts.capacity = 0;
  RecoveredDigestCache cache(opts);
  Rng rng(3);
  Signature sig(16, 0xAB);
  Digest out;
  cache.Insert(1, sig, RandomDigest(&rng));
  EXPECT_FALSE(cache.Lookup(1, sig, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Set-associative layout. Capacity 8 in one shard is exactly one 8-way
// set, so every signature below lands in the same set: the fingerprint
// cannot separate them and only the full-byte compare can.
// ---------------------------------------------------------------------------

RecoveredDigestCache::Options OneSet() {
  RecoveredDigestCache::Options opts;
  opts.capacity = 8;
  opts.shards = 1;
  return opts;
}

Signature RandomSignature(Rng* rng, size_t len) {
  Signature sig(len);
  for (auto& b : sig) b = static_cast<uint8_t>(rng->Next());
  return sig;
}

TEST(RecoveredDigestCacheSetTest, EachSignatureReturnsItsOwnDigest) {
  RecoveredDigestCache cache(OneSet());
  Rng rng(20);
  std::vector<Signature> sigs;
  std::vector<Digest> digests;
  for (size_t i = 0; i < 8; ++i) {
    // Mixed lengths, including ones that are not a multiple of a word.
    sigs.push_back(RandomSignature(&rng, i % 2 == 0 ? 16 : 5 + 17 * i));
    digests.push_back(RandomDigest(&rng));
    cache.Insert(1, sigs[i], digests[i]);
  }
  for (size_t i = 0; i < sigs.size(); ++i) {
    Digest out;
    ASSERT_TRUE(cache.Lookup(1, sigs[i], &out)) << i;
    EXPECT_EQ(out, digests[i]) << i;
  }
  EXPECT_EQ(cache.stats().entries, 8u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(RecoveredDigestCacheSetTest, EvictsLeastRecentlyUsedInTheSet) {
  RecoveredDigestCache cache(OneSet());
  Rng rng(21);
  std::vector<Signature> sigs;
  std::vector<Digest> digests;
  for (size_t i = 0; i < 9; ++i) {
    sigs.push_back(RandomSignature(&rng, 16));
    digests.push_back(RandomDigest(&rng));
  }
  for (size_t i = 0; i < 8; ++i) cache.Insert(1, sigs[i], digests[i]);
  // Touch everything but entry 3, in order: 3 becomes the oldest.
  Digest out;
  for (size_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(cache.Lookup(1, sigs[i], &out));
  }
  CryptoCounters c;
  cache.Insert(1, sigs[8], digests[8], &c);
  EXPECT_EQ(c.digest_cache_evictions, 1u);
  EXPECT_FALSE(cache.Lookup(1, sigs[3], &out)) << "LRU entry must go";
  for (size_t i = 0; i < 9; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(cache.Lookup(1, sigs[i], &out)) << i;
    EXPECT_EQ(out, digests[i]) << i;
  }
  // The re-lookups above refreshed the entries in index order, so entry 0
  // is now the oldest and the next insert must drop it.
  cache.Insert(1, sigs[3], digests[3]);
  EXPECT_FALSE(cache.Lookup(1, sigs[0], &out));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(RecoveredDigestCacheSetTest, EntriesNeverExceedCapacity) {
  Rng rng(22);
  for (size_t capacity : {1u, 3u, 7u, 8u, 17u, 64u, 100u}) {
    for (size_t shards : {1u, 4u, 8u}) {
      RecoveredDigestCache::Options opts;
      opts.capacity = capacity;
      opts.shards = shards;
      RecoveredDigestCache cache(opts);
      ASSERT_EQ(cache.capacity(), capacity);
      for (int i = 0; i < 600; ++i) {
        cache.Insert(1, RandomSignature(&rng, 1 + rng.Uniform(130)),
                     RandomDigest(&rng));
        ASSERT_LE(cache.stats().entries, cache.capacity())
            << "capacity=" << capacity << " shards=" << shards << " i=" << i;
      }
      RecoveredDigestCache::Stats s = cache.stats();
      EXPECT_GT(s.entries, 0u);
      EXPECT_EQ(s.entries + s.evictions, 600u);
    }
  }
}

}  // namespace

// Probes a set under a chosen fingerprint instead of the probe's own: a
// forged 64-bit collision, which no honest signature pair can supply.
class RecoveredDigestCacheTestPeer {
 public:
  static bool HitsUnder(RecoveredDigestCache& cache, uint64_t fp,
                        const Signature& probe) {
    RecoveredDigestCache::Shard& shard = cache.ShardFor(fp);
    std::lock_guard lock(shard.mu);
    return RecoveredDigestCache::Find(shard, cache.SetFor(shard, fp), fp,
                                      probe) != RecoveredDigestCache::kWays;
  }
};

namespace {

TEST(RecoveredDigestCacheSetTest, FingerprintMatchAloneIsNeverAHit) {
  RecoveredDigestCache cache(OneSet());
  Rng rng(25);
  Signature honest = RandomSignature(&rng, 16);
  cache.Insert(1, honest, RandomDigest(&rng));
  const uint64_t fp = SignatureHash{}(honest);
  ASSERT_TRUE(RecoveredDigestCacheTestPeer::HitsUnder(cache, fp, honest));

  Signature flipped = honest;
  flipped[7] ^= 0x01;
  Signature prefix(honest.begin(), honest.begin() + 15);
  Signature extended = honest;
  extended.push_back(0);
  for (const Signature& forged : {flipped, prefix, extended, Signature{}}) {
    EXPECT_FALSE(RecoveredDigestCacheTestPeer::HitsUnder(cache, fp, forged))
        << "size=" << forged.size();
  }
}

TEST(RecoveredDigestCacheSetTest, SharedPrefixSignaturesNeverAlias) {
  RecoveredDigestCache cache(OneSet());
  Rng rng(23);
  Signature longer = RandomSignature(&rng, 128);
  Signature shorter(longer.begin(), longer.begin() + 16);
  Digest d_short = RandomDigest(&rng), d_long = RandomDigest(&rng), out;

  cache.Insert(1, shorter, d_short);
  EXPECT_FALSE(cache.Lookup(1, longer, &out));
  cache.Insert(1, longer, d_long);
  ASSERT_TRUE(cache.Lookup(1, shorter, &out));
  EXPECT_EQ(out, d_short);
  ASSERT_TRUE(cache.Lookup(1, longer, &out));
  EXPECT_EQ(out, d_long);
  // One byte past the prefix, and a zero-padded 16-byte prefix.
  Signature seventeen(longer.begin(), longer.begin() + 17);
  Signature padded = shorter;
  padded.resize(24, 0);
  EXPECT_FALSE(cache.Lookup(1, seventeen, &out));
  EXPECT_FALSE(cache.Lookup(1, padded, &out));
  EXPECT_EQ(cache.stats().entries, 2u);
}

// 8 threads Lookup/Insert over a working set 8x the capacity, across two
// key domains, so hits race inserts, evictions and set growth. Every hit
// must return the digest that signature truly recovers to in that domain.
TEST(RecoveredDigestCacheSetTest, ConcurrentHitsReturnTrueDigests) {
  RecoveredDigestCache::Options opts;
  opts.capacity = 64;
  opts.shards = 4;
  RecoveredDigestCache cache(opts);

  constexpr size_t kSigs = 512;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  SimSigner signers[2] = {SimSigner(31), SimSigner(32)};
  std::vector<Signature> sigs;
  std::vector<Digest> truth[2];
  Rng rng(24);
  for (size_t i = 0; i < kSigs; ++i) {
    sigs.push_back(signers[0].Sign(RandomDigest(&rng)).ValueOrDie());
    for (int dom = 0; dom < 2; ++dom) {
      SimRecoverer rec(signers[dom].key_material());
      truth[dom].push_back(rec.Recover(sigs[i]).ValueOrDie());
    }
  }

  std::atomic<uint64_t> hits{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng local(200 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const size_t idx = local.Uniform(kSigs);
        const int dom = static_cast<int>(local.Uniform(2));
        Digest out;
        if (cache.Lookup(dom + 1, sigs[idx], &out)) {
          hits++;
          if (out != truth[dom][idx]) wrong++;
        } else {
          cache.Insert(dom + 1, sigs[idx], truth[dom][idx]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  RecoveredDigestCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, hits.load());
  EXPECT_EQ(s.hits + s.misses, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_LE(s.entries, cache.capacity());
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Atomic CryptoCounters under concurrent bumping (the BatchVerifier's
// pool workers share one batch-level sink). Run under TSan/ASan via the
// sanitizer CI job; with plain uint64_t fields this loses increments and
// is a TSan data race.
// ---------------------------------------------------------------------------

TEST(CryptoCountersTest, ConcurrentTicksAreNotLost) {
  CryptoCounters shared;
  RecoveredDigestCache cache;
  Schema schema = testutil::MakeWideSchema(4);
  DigestSchema ds("db", "t", schema);
  ds.set_counters(&shared);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Cost_h tick through the shared DigestSchema sink.
        ds.AttributeDigest(i, 1, Value::Str("v"));
        // Cache traffic ticks through the same shared sink.
        Signature sig(16);
        for (auto& b : sig) b = static_cast<uint8_t>(rng.Next());
        Digest out;
        cache.Lookup(1, sig, &out, &shared);  // distinct keys: all misses
        shared.recovers++;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(shared.attr_hashes, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(shared.recovers, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(shared.digest_cache_misses, uint64_t{kThreads} * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// Exponent-folded Combine stays bit-identical to the chained form the
// verifier's digest equation is defined by.
// ---------------------------------------------------------------------------

TEST(CommutativeHashFoldTest, FoldedCombineMatchesChainedExtend) {
  CommutativeHash g;
  Rng rng(5);
  for (size_t n : {0u, 1u, 2u, 7u, 33u}) {
    std::vector<Digest> set;
    for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
    Digest chained = g.Identity();
    for (const Digest& d : set) chained = g.Extend(chained, d);
    EXPECT_EQ(g.Combine(set), chained) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Adversarial soundness: tampered signatures vs. warm caches, end to end.
// ---------------------------------------------------------------------------

class VerifyCacheSoundnessTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*sim_work_factor=*/1); }

  /// A SimSigner-backed central server, an edge and a client. With
  /// work_factor 1 a Recover is one AES block, cheaper than a cache hit,
  /// so the client never consults its digest cache; work_factor 2 makes
  /// the cache pay and exercises it.
  void Build(int sim_work_factor) {
    CentralServer::Options opts;
    opts.sim_work_factor = sim_work_factor;
    opts.tree_opts.config.max_internal = 16;
    opts.tree_opts.config.max_leaf = 16;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();

    schema_ = testutil::MakeWideSchema(10);
    ASSERT_TRUE(central_->CreateTable("items", schema_).ok());
    Rng rng(42);
    ASSERT_TRUE(
        central_->LoadTable("items", testutil::MakeRows(schema_, 500, &rng))
            .ok());

    edge_ = std::make_unique<EdgeServer>("edge-1");
    ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  QueryBatch HotBatch() {
    QueryBatch batch;
    batch.table = "items";
    for (int i = 0; i < 4; ++i) {
      SelectQuery q;
      q.table = "items";
      q.range = KeyRange{100 + i, 140 + i};
      q.projection = {0, 2, 5};
      batch.queries.push_back(std::move(q));
    }
    return batch;
  }

  Schema schema_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  std::unique_ptr<Client> client_;
};

/// The same deployment with a recoverer the digest cache serves
/// (SimSigner work_factor 2): the cases that need a warm cache.
class WarmCacheSoundnessTest : public VerifyCacheSoundnessTest {
 protected:
  void SetUp() override { Build(/*sim_work_factor=*/2); }
};

TEST_F(WarmCacheSoundnessTest, BitFlippedSignatureMissesWarmCacheAndFails) {
  // Warm the cache with an honest verified answer.
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  auto warm = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(warm.ok());
  for (const auto& v : warm->results) ASSERT_TRUE(v.verification.ok());
  ASSERT_GT(client_->digest_cache()->stats().entries, 0u);

  // Re-run the same query directly and flip one bit in each class of VO
  // signature; every variant must fail against the warm cache, and the
  // flipped bytes must not hit any cached digest.
  SelectQuery q = HotBatch().queries[0];
  QueryBatch one;
  one.table = q.table;
  one.queries = {q};
  auto honest_batch = edge_->HandleQueryBatch(one);
  ASSERT_TRUE(honest_batch.ok());
  const QueryResponse* honest = &honest_batch->responses[0];

  auto verify_with_warm_cache = [&](const VerificationObject& vo) {
    auto rec = central_->key_directory()->RecovererFor(vo.key_version, 10);
    EXPECT_TRUE(rec.ok());
    DigestSchema ds(central_->db_name(), "items", schema_);
    Verifier verifier(ds, rec.ValueOrDie().get());
    verifier.set_digest_cache(client_->digest_cache(), vo.key_version);
    SelectQuery nq = q;
    nq.NormalizeProjection();
    return verifier.VerifySelect(nq, honest->rows(), vo);
  };
  ASSERT_TRUE(verify_with_warm_cache(honest->vo()).ok());

  {
    VerificationObject vo = honest->vo().Clone();
    vo.signed_top[0] ^= 0x01;
    Digest out;
    EXPECT_FALSE(client_->digest_cache()->Lookup(vo.key_version,
                                                 vo.signed_top, &out))
        << "a flipped signature must be a different cache key";
    EXPECT_FALSE(verify_with_warm_cache(vo).ok());
  }
  {
    VerificationObject vo = honest->vo().Clone();
    ASSERT_FALSE(vo.projected_attr_sigs.empty());
    vo.projected_attr_sigs[0][3] ^= 0x80;
    Digest out;
    EXPECT_FALSE(client_->digest_cache()->Lookup(
        vo.key_version, vo.projected_attr_sigs[0], &out));
    EXPECT_FALSE(verify_with_warm_cache(vo).ok());
  }
}

TEST_F(VerifyCacheSoundnessTest, SwappedPoolIndexFailsVerification) {
  // Build a pooled encoding of an honest VO, then decode it against a
  // pool whose first two entries are transposed — exactly what an edge
  // lying about varint indices achieves. Every signature materializes at
  // the wrong position, so the digest equation must fail even though
  // every byte string in the pool is individually authentic (and may
  // individually be cache-hot).
  SelectQuery q = HotBatch().queries[0];
  QueryBatch one;
  one.table = q.table;
  one.queries = {q};
  auto honest_batch = edge_->HandleQueryBatch(one);
  ASSERT_TRUE(honest_batch.ok());
  const QueryResponse* honest = &honest_batch->responses[0];

  SignaturePool pool;
  ByteWriter body;
  honest->vo().SerializePooled(&body, &pool);
  ASSERT_GE(pool.size(), 2u);

  SignaturePool swapped;
  ASSERT_EQ(swapped.Intern(*pool.Get(1)), 0u);  // transposed
  ASSERT_EQ(swapped.Intern(*pool.Get(0)), 1u);
  for (uint64_t i = 2; i < pool.size(); ++i) {
    ASSERT_EQ(swapped.Intern(*pool.Get(i)), i);
  }

  ByteReader r{Slice(body.buffer())};
  auto vo = VerificationObject::DeserializePooled(&r, swapped);
  ASSERT_TRUE(vo.ok()) << vo.status().ToString();

  auto rec = central_->key_directory()->RecovererFor(vo->key_version, 10);
  ASSERT_TRUE(rec.ok());
  DigestSchema ds(central_->db_name(), "items", schema_);

  // Warm cache with every honest pool signature's digest first.
  for (uint64_t i = 0; i < pool.size(); ++i) {
    auto d = rec.ValueOrDie()->Recover(*pool.Get(i));
    ASSERT_TRUE(d.ok());
    client_->digest_cache()->Insert(vo->key_version, *pool.Get(i), *d);
  }

  Verifier verifier(ds, rec.ValueOrDie().get());
  verifier.set_digest_cache(client_->digest_cache(), vo->key_version);
  SelectQuery nq = q;
  nq.NormalizeProjection();
  EXPECT_FALSE(verifier.VerifySelect(nq, honest->rows(), *vo).ok())
      << "transposed pool indices must never authenticate";
}

TEST_F(WarmCacheSoundnessTest,
       TamperBehindUnchangedReplicaVersionFailsDespiteWarmMemo) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  // Two honest rounds: the second one exercises memo/cache hits at this
  // replica version.
  auto first = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(first.ok());
  for (const auto& v : first->results) ASSERT_TRUE(v.verification.ok());
  auto second = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(second.ok());
  for (const auto& v : second->results) ASSERT_TRUE(v.verification.ok());
  EXPECT_GT(second->top_memo_hits, 0u)
      << "same watermark + same envelopes should hit the top memo";
  EXPECT_GT(second->crypto.digest_cache_hits, 0u);

  // Corrupt the store. The replica version does NOT change — the edge
  // keeps claiming the watermark the client has memoized tops for.
  ASSERT_TRUE(
      edge_->TamperValueByKey("items", 120, 2, Value::Str("forged")).ok());

  auto tampered = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(tampered.ok());
  size_t failures = 0;
  for (const auto& v : tampered->results) {
    if (!v.verification.ok()) failures++;
  }
  EXPECT_GT(failures, 0u)
      << "stale memo/cache entries must never authenticate tampered data";
}

TEST_F(VerifyCacheSoundnessTest, CheapRecoverSkipsCacheAndStillRejectsTamper) {
  // Default SimSigner: one Recover is one AES block, cheaper than a cache
  // hit, so honest batches neither probe nor fill the digest cache.
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  for (int round = 0; round < 2; ++round) {
    auto honest = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
    ASSERT_TRUE(honest.ok());
    for (const auto& v : honest->results) ASSERT_TRUE(v.verification.ok());
    EXPECT_EQ(honest->crypto.digest_cache_hits, 0u);
    EXPECT_EQ(honest->crypto.digest_cache_misses, 0u);
    EXPECT_GT(honest->crypto.recovers, 0u);
  }
  EXPECT_EQ(client_->digest_cache()->stats().entries, 0u);

  // Bit flips, verified the way Client::VerifyBatchGroup does: through
  // the BatchVerifier, with the client's cache offered.
  SelectQuery q = HotBatch().queries[0];
  QueryBatch one;
  one.table = q.table;
  one.queries = {q};
  auto honest_batch = edge_->HandleQueryBatch(one);
  ASSERT_TRUE(honest_batch.ok());
  const QueryResponse& honest = honest_batch->responses[0];
  const uint32_t kv = honest.vo().key_version;
  auto rec = central_->key_directory()->RecovererFor(kv, 10);
  ASSERT_TRUE(rec.ok());
  DigestSchema ds(central_->db_name(), "items", schema_);
  SelectQuery nq = q;
  nq.NormalizeProjection();
  BatchVerifier verifier(BatchVerifier::Options{0});
  BatchVerifier::PoolContext ctx;
  ctx.cache = client_->digest_cache();
  ctx.cache_domain = kv;
  auto verify = [&](const VerificationObject& vo) {
    const BatchVerifier::Job job{&nq, &honest.rows(), &vo};
    return verifier
        .VerifyAll(ds, rec.ValueOrDie().get(), std::span(&job, 1), &ctx)[0]
        .verification;
  };
  ASSERT_TRUE(verify(honest.vo()).ok());
  {
    VerificationObject vo = honest.vo().Clone();
    vo.signed_top[0] ^= 0x01;
    EXPECT_FALSE(verify(vo).ok());
  }
  {
    VerificationObject vo = honest.vo().Clone();
    ASSERT_FALSE(vo.projected_attr_sigs.empty());
    vo.projected_attr_sigs[0][3] ^= 0x80;
    EXPECT_FALSE(verify(vo).ok());
  }
  EXPECT_EQ(client_->digest_cache()->stats().entries, 0u);

  // Tamper behind an unchanged replica version, with the top memo warm.
  ASSERT_TRUE(
      edge_->TamperValueByKey("items", 120, 2, Value::Str("forged")).ok());
  auto tampered = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(tampered.ok());
  size_t failures = 0;
  for (const auto& v : tampered->results) {
    if (!v.verification.ok()) failures++;
  }
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(client_->digest_cache()->stats().entries, 0u);
}

TEST_F(VerifyCacheSoundnessTest, FastPathAndPlainPathAgreeAndReduceRecovers) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  Client plain(central_->db_name(), central_->key_directory());
  plain.RegisterTable("items", schema_);
  plain.set_verify_fast_path(false);

  uint64_t fast_recovers = 0, plain_recovers = 0;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    auto fast = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
    auto slow = plain.QueryBatched(&service, HotBatch(), /*now=*/10);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast->results.size(), slow->results.size());
    for (size_t i = 0; i < fast->results.size(); ++i) {
      EXPECT_EQ(fast->results[i].verification.ok(),
                slow->results[i].verification.ok());
      EXPECT_TRUE(fast->results[i].verification.ok());
      EXPECT_EQ(fast->results[i].rows.size(), slow->results[i].rows.size());
    }
    fast_recovers += fast->crypto.recovers.load();
    plain_recovers += slow->crypto.recovers.load();
  }
  // Identical hot batches: the fast path pays each distinct pooled
  // signature once per batch (the SimSigner recover is too cheap for the
  // cross-batch cache) and memoizes the signed tops; the plain path pays
  // per reference every round. The acceptance bar for the bench workload
  // is >= 3x.
  EXPECT_GE(plain_recovers, 3 * fast_recovers)
      << "plain=" << plain_recovers << " fast=" << fast_recovers;
  EXPECT_GT(fast_recovers, 0u);
}

}  // namespace
}  // namespace vbtree
