#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "crypto/commutative_hash.h"
#include "crypto/counting_recoverer.h"
#include "crypto/hash.h"
#include "crypto/key_manager.h"
#include "crypto/rsa_signer.h"
#include "crypto/sim_signer.h"

namespace vbtree {
namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

TEST(Uint128Test, MulWrapMatchesSmallProducts) {
  Uint128 a(7), b(9);
  EXPECT_EQ(a.MulWrap(b).lo(), 63u);
  EXPECT_EQ(a.MulWrap(b).hi(), 0u);
}

TEST(Uint128Test, MulWrapCrossesWordBoundary) {
  Uint128 a = Uint128::FromParts(0, ~0ull);  // 2^64 - 1
  Uint128 r = a.MulWrap(a);                  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(r.lo(), 1u);
  EXPECT_EQ(r.hi(), ~0ull - 1);
}

TEST(Uint128Test, MaskDropsHighBits) {
  Uint128 v = Uint128::FromParts(~0ull, ~0ull);
  EXPECT_EQ(v.Mask(64).hi(), 0u);
  EXPECT_EQ(v.Mask(64).lo(), ~0ull);
  EXPECT_EQ(v.Mask(8).lo(), 0xFFu);
  EXPECT_EQ(v.Mask(128).hi(), ~0ull);
}

TEST(Uint128Test, DigestRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Digest d = RandomDigest(&rng);
    EXPECT_EQ(Digest::FromUint128(d.ToUint128()), d);
  }
}

TEST(HashTest, Sha256KnownVector) {
  // SHA-256("abc") = ba7816bf 8f01cfea ...
  auto h = Sha256(Slice("abc", 3));
  EXPECT_EQ(h[0], 0xba);
  EXPECT_EQ(h[1], 0x78);
  EXPECT_EQ(h[2], 0x16);
  EXPECT_EQ(h[3], 0xbf);
}

TEST(HashTest, TruncatedDigestMatchesPrefix) {
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("abc", 3));
  auto full = Sha256(Slice("abc", 3));
  EXPECT_TRUE(std::equal(d.bytes.begin(), d.bytes.end(), full.begin()));
}

TEST(HashTest, AlgorithmsDiffer) {
  Slice in("same input", 10);
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, in),
            HashToDigest(HashAlgorithm::kSha1, in));
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, in),
            HashToDigest(HashAlgorithm::kMd5, in));
}

TEST(HashTest, InputSensitivity) {
  EXPECT_NE(HashToDigest(HashAlgorithm::kSha256, Slice("a", 1)),
            HashToDigest(HashAlgorithm::kSha256, Slice("b", 1)));
}

TEST(CommutativeHashTest, IdentityIsOdd) {
  CommutativeHash g;
  EXPECT_TRUE(g.Identity().ToUint128().IsOdd());
}

TEST(CommutativeHashTest, ResultsAlwaysOdd) {
  // Units mod 2^k are closed under the group operation; digests must stay
  // odd so they remain units.
  CommutativeHash g;
  Rng rng(3);
  Digest acc = g.Identity();
  for (int i = 0; i < 50; ++i) {
    acc = g.Extend(acc, RandomDigest(&rng));
    EXPECT_TRUE(acc.ToUint128().IsOdd());
  }
}

TEST(CommutativeHashTest, PairCommutes) {
  CommutativeHash g;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Digest a = RandomDigest(&rng), b = RandomDigest(&rng);
    Digest ab = g.Extend(g.Extend(g.Identity(), a), b);
    Digest ba = g.Extend(g.Extend(g.Identity(), b), a);
    EXPECT_EQ(ab, ba);
  }
}

TEST(CommutativeHashTest, ExtendEqualsCombineOfUnion) {
  // Extend(Combine(S), d) == Combine(S + {d}) — the property §3.4's
  // incremental insert relies on.
  CommutativeHash g;
  Rng rng(5);
  std::vector<Digest> set;
  for (int i = 0; i < 10; ++i) set.push_back(RandomDigest(&rng));
  Digest base = g.Combine(set);
  Digest extra = RandomDigest(&rng);
  std::vector<Digest> bigger = set;
  bigger.push_back(extra);
  EXPECT_EQ(g.Extend(base, extra), g.Combine(bigger));
}

TEST(CommutativeHashTest, ModExpMatchesRepeatedMultiplication) {
  CommutativeHash g(32);
  Uint128 base(3);
  uint64_t mask32 = 0xFFFFFFFFull;
  uint64_t expect = 1;
  for (int e = 0; e < 20; ++e) {
    EXPECT_EQ(g.ModExp(base, Uint128(static_cast<uint64_t>(e))).lo(), expect);
    expect = (expect * 3) & mask32;
  }
}

TEST(CommutativeHashTest, SmallerModulusMasksResults) {
  CommutativeHash g(16);
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    Digest d = g.Extend(g.Identity(), RandomDigest(&rng));
    EXPECT_EQ(d.ToUint128().Mask(16), d.ToUint128());
  }
}

TEST(CommutativeHashTest, ZeroExponentMapsToOne) {
  CommutativeHash g;
  Digest zero{};  // all-zero digest
  Digest r = g.Extend(g.Identity(), zero);
  // Mapped deterministically to exponent 1 => returns the identity (G^1).
  EXPECT_EQ(r, g.Identity());
}

TEST(CommutativeHashTest, CountsCombineOps) {
  CryptoCounters counters;
  CommutativeHash g(128, &counters);
  Rng rng(7);
  std::vector<Digest> set;
  for (int i = 0; i < 5; ++i) set.push_back(RandomDigest(&rng));
  g.Combine(set);
  EXPECT_EQ(counters.combine_ops, 5u);
}

// The fixed-base comb behind FromExponent and Combine must equal plain
// square-and-multiply from the generator at every modulus width,
// including exponents with bits at or above the width.
std::vector<Uint128> CombProbeExponents(int bits, Rng* rng) {
  const Uint128 all_ones = Uint128::FromParts(~0ull, ~0ull);
  std::vector<Uint128> es = {Uint128(0), Uint128(1), all_ones.Mask(bits),
                             all_ones};
  if (bits < 128) {
    // Only bits >= k set, and bit k alone: both reduce to exponent 0.
    Uint128 low = all_ones.Mask(bits);
    es.push_back(Uint128::FromParts(~low.hi(), ~low.lo()));
    es.push_back(Uint128::FromParts(
        bits >= 64 ? 1ull << (bits - 64) : 0, bits < 64 ? 1ull << bits : 0));
  }
  for (int i = 0; i < 64; ++i) {
    es.push_back(Uint128::FromParts(rng->Next(), rng->Next()));
  }
  return es;
}

TEST(CommutativeHashCombTest, FromExponentMatchesModExpAtEveryWidth) {
  Rng rng(11);
  for (int bits = 8; bits <= 128; ++bits) {
    CommutativeHash g(bits);
    const Uint128 base = g.Identity().ToUint128();
    for (const Uint128& e : CombProbeExponents(bits, &rng)) {
      ASSERT_EQ(g.FromExponent(e), Digest::FromUint128(g.ModExp(base, e)))
          << "bits=" << bits << " e=" << Digest::FromUint128(e).ToHex();
    }
  }
}

TEST(CommutativeHashCombTest, CombineMatchesModExpOfProductAtEveryWidth) {
  Rng rng(12);
  for (int bits = 8; bits <= 128; ++bits) {
    CommutativeHash g(bits);
    const Uint128 base = g.Identity().ToUint128();
    for (size_t n : {0u, 1u, 3u, 16u}) {
      std::vector<Digest> set;
      for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
      EXPECT_EQ(g.Combine(set), Digest::FromUint128(
                                    g.ModExp(base, g.ExponentProduct(set))))
          << "bits=" << bits << " n=" << n;
    }
    // Single digests at the edge exponents (0 maps to 1 via
    // ExponentFactor, exactly as Extend does).
    for (const Uint128& e : CombProbeExponents(bits, &rng)) {
      Digest d = Digest::FromUint128(e);
      EXPECT_EQ(g.Combine({&d, 1}), g.Extend(g.Identity(), d))
          << "bits=" << bits << " e=" << d.ToHex();
    }
  }
}

/// Property sweep: any permutation of any subset combines to the same
/// digest (the foundation of the paper's "VO is just a set" claim).
class CommutativitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CommutativitySweep, PermutationInvariance) {
  CommutativeHash g;
  Rng rng(100 + GetParam());
  size_t n = 2 + rng.Uniform(12);
  std::vector<Digest> set;
  for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
  Digest reference = g.Combine(set);
  std::mt19937 shuffler(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(set.begin(), set.end(), shuffler);
    EXPECT_EQ(g.Combine(set), reference);
  }
}

TEST_P(CommutativitySweep, DifferentSetsCollideRarely) {
  CommutativeHash g;
  Rng rng(200 + GetParam());
  std::vector<Digest> a, b;
  for (int i = 0; i < 6; ++i) a.push_back(RandomDigest(&rng));
  b = a;
  b[3] = RandomDigest(&rng);  // perturb one element
  EXPECT_NE(g.Combine(a), g.Combine(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommutativitySweep, ::testing::Range(0, 16));

TEST(ChainedHashTest, OrderDependent) {
  ChainedHash chained;
  Rng rng(8);
  std::vector<Digest> set{RandomDigest(&rng), RandomDigest(&rng)};
  Digest ab = chained.Combine(set);
  std::swap(set[0], set[1]);
  Digest ba = chained.Combine(set);
  EXPECT_NE(ab, ba);  // unlike the commutative hash
}

TEST(SimSignerTest, SignRecoverRoundTrip) {
  SimSigner signer(42);
  SimRecoverer rec(signer.key_material());
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    Digest d = RandomDigest(&rng);
    auto sig = signer.Sign(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), kDigestLen);
    auto back = rec.Recover(*sig);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, d);
  }
}

TEST(SimSignerTest, DifferentKeysProduceDifferentSignatures) {
  SimSigner a(1), b(2);
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("x", 1));
  EXPECT_NE(*a.Sign(d), *b.Sign(d));
}

TEST(SimSignerTest, WrongKeyRecoversGarbage) {
  SimSigner signer(1);
  SimRecoverer wrong(SimSigner(2).key_material());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("x", 1));
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  auto back = wrong.Recover(*sig);
  ASSERT_TRUE(back.ok());           // decrypts unconditionally...
  EXPECT_NE(*back, d);              // ...but to the wrong digest
}

TEST(SimSignerTest, BadLengthRejected) {
  SimRecoverer rec(SimSigner(1).key_material());
  Signature bad(7, 0x00);
  EXPECT_TRUE(rec.Recover(bad).status().IsVerificationFailure());
}

TEST(SimSignerTest, WorkFactorRoundTrips) {
  SimSigner signer(42, nullptr, /*work_factor=*/10);
  SimRecoverer rec(signer.key_material(), nullptr, /*work_factor=*/10);
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("y", 1));
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(*rec.Recover(*sig), d);
}

TEST(SimSignerTest, CountsOps) {
  CryptoCounters counters;
  SimSigner signer(42, &counters);
  SimRecoverer rec(signer.key_material(), &counters);
  Digest d{};
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(rec.Recover(*sig).ok());
  EXPECT_EQ(counters.signs, 1u);
  EXPECT_EQ(counters.recovers, 1u);
}

TEST(RsaSignerTest, SignRecoverRoundTrip) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  RsaSigner& signer = **signer_or;
  auto rec_or = signer.MakeRecoverer();
  ASSERT_TRUE(rec_or.ok());
  Rng rng(10);
  for (int i = 0; i < 5; ++i) {
    Digest d = RandomDigest(&rng);
    auto sig = signer.Sign(d);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(sig->size(), 128u);  // 1024-bit modulus
    EXPECT_EQ(*(*rec_or)->Recover(*sig), d);
  }
}

TEST(RsaSignerTest, PublicKeyDerRoundTrip) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  auto der = (*signer_or)->ExportPublicKey();
  ASSERT_TRUE(der.ok());
  auto rec_or = RsaRecoverer::FromPublicKeyDer(*der);
  ASSERT_TRUE(rec_or.ok());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("z", 1));
  auto sig = (*signer_or)->Sign(d);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(*(*rec_or)->Recover(*sig), d);
}

TEST(RsaSignerTest, ForgedSignatureRejected) {
  auto signer_or = RsaSigner::Generate(1024);
  ASSERT_TRUE(signer_or.ok());
  auto rec_or = (*signer_or)->MakeRecoverer();
  ASSERT_TRUE(rec_or.ok());
  Signature forged(128, 0x41);
  // PKCS#1 padding check fails for random bytes with overwhelming
  // probability.
  EXPECT_FALSE((*rec_or)->Recover(forged).ok());
}

TEST(RsaSignerTest, WrongKeyRejected) {
  auto a = RsaSigner::Generate(1024);
  auto b = RsaSigner::Generate(1024);
  ASSERT_TRUE(a.ok() && b.ok());
  auto rec_b = (*b)->MakeRecoverer();
  ASSERT_TRUE(rec_b.ok());
  Digest d = HashToDigest(HashAlgorithm::kSha256, Slice("w", 1));
  auto sig = (*a)->Sign(d);
  ASSERT_TRUE(sig.ok());
  auto back = (*rec_b)->Recover(*sig);
  // Either padding fails or a wrong digest comes back; never the original.
  if (back.ok()) {
    EXPECT_NE(*back, d);
  }
}

TEST(CountingRecovererTest, TicksOwnCounters) {
  SimSigner signer(42);
  SimRecoverer inner(signer.key_material());
  CryptoCounters mine;
  CountingRecoverer counting(&inner, &mine);
  Digest d{};
  auto sig = signer.Sign(d);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(counting.Recover(*sig).ok());
  ASSERT_TRUE(counting.Recover(*sig).ok());
  EXPECT_EQ(mine.recovers, 2u);
}

TEST(CountingRecovererTest, ForwardsCacheCostProperty) {
  // One AES block is cheaper than a digest-cache hit; chained blocks and
  // RSA exponentiations are not.
  SimSigner signer(42);
  SimRecoverer cheap(signer.key_material());
  SimRecoverer chained(signer.key_material(), nullptr, /*work_factor=*/2);
  auto rsa = RsaSigner::Generate(1024);
  ASSERT_TRUE(rsa.ok());
  auto rsa_rec = rsa.ValueOrDie()->MakeRecoverer();
  ASSERT_TRUE(rsa_rec.ok());
  EXPECT_FALSE(cheap.recover_outcosts_cache_hit());
  EXPECT_TRUE(chained.recover_outcosts_cache_hit());
  EXPECT_TRUE(rsa_rec.ValueOrDie()->recover_outcosts_cache_hit());
  for (Recoverer* inner : std::initializer_list<Recoverer*>{
           &cheap, &chained, rsa_rec.ValueOrDie().get()}) {
    CountingRecoverer counting(inner, nullptr);
    EXPECT_EQ(counting.recover_outcosts_cache_hit(),
              inner->recover_outcosts_cache_hit());
  }
}

TEST(KeyDirectoryTest, ValidVersionResolves) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 0, 100},
              std::make_shared<SimRecoverer>(signer.key_material()));
  EXPECT_TRUE(dir.RecovererFor(1, 50).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 0).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 100).ok());
}

TEST(KeyDirectoryTest, ExpiredOrUnknownVersionRejected) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 10, 100},
              std::make_shared<SimRecoverer>(signer.key_material()));
  EXPECT_TRUE(dir.RecovererFor(1, 101).status().IsVerificationFailure());
  EXPECT_TRUE(dir.RecovererFor(1, 9).status().IsVerificationFailure());
  EXPECT_TRUE(dir.RecovererFor(2, 50).status().IsVerificationFailure());
}

TEST(KeyDirectoryTest, ExpireTruncatesValidity) {
  KeyDirectory dir;
  SimSigner signer(1);
  dir.Publish(KeyVersionInfo{1, 0, 1000},
              std::make_shared<SimRecoverer>(signer.key_material()));
  ASSERT_TRUE(dir.Expire(1, 500).ok());
  EXPECT_TRUE(dir.RecovererFor(1, 499).ok());
  EXPECT_FALSE(dir.RecovererFor(1, 500).ok());
}

TEST(KeyDirectoryTest, LatestVersionTracksPublishes) {
  KeyDirectory dir;
  EXPECT_EQ(dir.LatestVersion(), 0u);
  SimSigner signer(1);
  auto rec = std::make_shared<SimRecoverer>(signer.key_material());
  dir.Publish(KeyVersionInfo{1, 0, 10}, rec);
  dir.Publish(KeyVersionInfo{3, 0, 10}, rec);
  dir.Publish(KeyVersionInfo{2, 0, 10}, rec);
  EXPECT_EQ(dir.LatestVersion(), 3u);
}

TEST(CryptoCountersTest, CostUnitsWeighting) {
  CryptoCounters c;
  c.attr_hashes = 10;
  c.combine_ops = 4;
  c.recovers = 2;
  // 10*1 + 4*0.5 + 2*100 = 212
  EXPECT_DOUBLE_EQ(c.CostUnits(0.5, 100), 212.0);
}

// --- Signature: the small-buffer value type -------------------------------

static_assert(std::is_nothrow_move_constructible_v<Signature>);
static_assert(std::is_nothrow_move_assignable_v<Signature>);
static_assert(sizeof(Signature) <= 24);

constexpr size_t kInline = Signature::kInlineCapacity;

std::vector<uint8_t> PatternBytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(seed + 7 * i);
  return v;
}

void ExpectBytes(const Signature& s, const std::vector<uint8_t>& want) {
  ASSERT_EQ(s.size(), want.size());
  EXPECT_EQ(s.empty(), want.empty());
  EXPECT_TRUE(std::equal(s.begin(), s.end(), want.begin(), want.end()));
  EXPECT_EQ(Slice(s), Slice(want));
}

TEST(SignatureValueTest, LengthsAcrossTheInlineBoundary) {
  ASSERT_GE(kInline, kDigestLen);
  for (size_t n : {size_t{0}, size_t{1}, size_t{16}, kInline, kInline + 1,
                   size_t{128}, size_t{300}}) {
    SCOPED_TRACE(n);
    const std::vector<uint8_t> want = PatternBytes(n, 3);
    Signature s(want.begin(), want.end());
    ExpectBytes(s, want);
    EXPECT_GE(s.capacity(), n);
    if (n <= kInline) {
      EXPECT_EQ(s.capacity(), kInline);
    }

    Signature filled(n, 0xAB);
    ExpectBytes(filled, std::vector<uint8_t>(n, 0xAB));

    Signature copy(s);
    ExpectBytes(copy, want);
    if (n > 0) {
      EXPECT_NE(copy.data(), s.data());
    }
    Signature moved(std::move(copy));
    ExpectBytes(moved, want);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

    Signature assigned;
    assigned = s;
    ExpectBytes(assigned, want);
    Signature move_assigned(5, 0x11);
    move_assigned = std::move(assigned);
    ExpectBytes(move_assigned, want);
    EXPECT_TRUE(assigned.empty());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(SignatureValueTest, ConstructorsAndMutators) {
  const Signature list = {1, 2, 3};
  ExpectBytes(list, {1, 2, 3});
  Signature s = list;
  s[1] = 9;
  ExpectBytes(s, {1, 9, 3});
  ExpectBytes(list, {1, 2, 3});
  const std::vector<uint8_t> long_bytes = PatternBytes(128, 5);
  s.assign(long_bytes.begin(), long_bytes.end());
  ExpectBytes(s, long_bytes);
  s.assign(list.begin(), list.end());
  ExpectBytes(s, {1, 2, 3});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_GE(s.capacity(), 128u);  // clear keeps the buffer
}

TEST(SignatureValueTest, SelfAssignmentKeepsBytes) {
  for (size_t n : {size_t{16}, size_t{128}}) {
    const std::vector<uint8_t> want = PatternBytes(n, 1);
    Signature s(want.begin(), want.end());
    Signature& alias = s;
    s = alias;
    ExpectBytes(s, want);
    s = std::move(alias);
    ExpectBytes(s, want);
  }
}

TEST(SignatureValueTest, MoveFromHeapTransfersTheBuffer) {
  const std::vector<uint8_t> want = PatternBytes(128, 9);
  Signature heap(want.begin(), want.end());
  const uint8_t* buffer = heap.data();
  Signature moved(std::move(heap));
  EXPECT_EQ(moved.data(), buffer);
  ExpectBytes(moved, want);
  EXPECT_TRUE(heap.empty());  // NOLINT(bugprone-use-after-move)

  Signature target = {7};
  target = std::move(moved);
  EXPECT_EQ(target.data(), buffer);
  ExpectBytes(target, want);

  // The moved-from values are reusable.
  heap = Signature(3, 0x42);
  ExpectBytes(heap, {0x42, 0x42, 0x42});
}

TEST(SignatureValueTest, CopyAssignmentReusesAHeapBuffer) {
  const std::vector<uint8_t> a = PatternBytes(128, 1);
  const std::vector<uint8_t> b = PatternBytes(128, 2);
  Signature slot(a.begin(), a.end());
  const uint8_t* buffer = slot.data();
  const Signature other(b.begin(), b.end());
  slot = other;
  EXPECT_EQ(slot.data(), buffer);
  ExpectBytes(slot, b);
  const Signature small = {1, 2};
  slot = small;
  ExpectBytes(slot, {1, 2});
  EXPECT_EQ(slot, small);
}

TEST(SignatureValueTest, ComparisonMatchesVector) {
  std::mt19937_64 gen(20240613);
  const size_t lengths[] = {0, 1, 2, 8, 15, 16, 17, kInline, kInline + 1, 128};
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<uint8_t> va = PatternBytes(lengths[gen() % 10], gen());
    std::vector<uint8_t> vb;
    switch (gen() % 3) {
      case 0:  // independent
        vb = PatternBytes(lengths[gen() % 10], gen());
        break;
      case 1:  // shared prefix, then differing bytes or lengths
        vb = va;
        vb.resize(gen() % (va.size() + 2), static_cast<uint8_t>(gen()));
        if (!vb.empty() && gen() % 2 == 0) {
          vb[gen() % vb.size()] = static_cast<uint8_t>(gen());
        }
        break;
      default:  // equal
        vb = va;
        break;
    }
    for (auto& byte : va) {
      if (gen() % 8 == 0) byte ^= 0x80;  // exercise the unsigned order
    }
    const Signature a(va.begin(), va.end());
    const Signature b(vb.begin(), vb.end());
    EXPECT_EQ(a == b, va == vb);
    EXPECT_EQ(a != b, va != vb);
    EXPECT_EQ(a < b, va < vb);
    EXPECT_EQ(b < a, vb < va);
  }
}

TEST(SignatureValueTest, GrowthAcrossTheBoundaryKeepsBytes) {
  std::vector<uint8_t> want;
  Signature s;
  for (size_t i = 0; i < 300; ++i) {
    const auto b = static_cast<uint8_t>(i * 13 + 1);
    s.push_back(b);
    want.push_back(b);
    ASSERT_EQ(s.size(), want.size());
    ASSERT_TRUE(std::equal(s.begin(), s.end(), want.begin()));
  }

  Signature r = {1, 2, 3};
  r.resize(kInline, 0x5A);
  want = {1, 2, 3};
  want.resize(kInline, 0x5A);
  ExpectBytes(r, want);
  r.resize(kInline + 1, 0x6B);
  want.resize(kInline + 1, 0x6B);
  ExpectBytes(r, want);
  r.resize(200, 0x7C);
  want.resize(200, 0x7C);
  ExpectBytes(r, want);
  r.resize(4);
  want.resize(4);
  ExpectBytes(r, want);
  r.resize(6);
  want.resize(6);
  ExpectBytes(r, want);
}

}  // namespace
}  // namespace vbtree
