#ifndef VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_
#define VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "crypto/counters.h"
#include "crypto/digest.h"
#include "crypto/signer.h"

namespace vbtree {

/// 64-bit fingerprint of a signature's full byte string, folded word by
/// word for every length; shared by the recovered-digest cache (where it
/// picks the shard and the set) and the client's signed-top memo. Never a
/// trust boundary — equality always compares full bytes.
struct SignatureHash {
  size_t operator()(const Signature& s) const;
};

/// Bounded, sharded, set-associative cache memoizing p(sig) — the digest
/// a signature recovers to under one public key. Recovery is a
/// deterministic pure function of the raw signature bytes (given the
/// key), so caching the mapping is plain memoization: a hit returns
/// exactly what Recover() would, one modular exponentiation (or AES
/// decrypt) cheaper.
///
/// Soundness (the argument, in full, lives in DESIGN.md §6.2): an entry
/// is matched on the *entire* raw signature byte string plus a
/// caller-chosen domain (the signing-key version). The fingerprint only
/// chooses where to look; a slot whose fingerprint matches but whose
/// bytes or domain differ is a miss. Any tamper — a single bit flip, a
/// swapped pool index materializing a different pool entry, a replayed
/// signature from another key epoch — therefore can never alias a cached
/// honest digest, and engineered fingerprint collisions only cost a
/// miss. The cache cannot turn a failing verification into a passing
/// one; it can only skip re-deriving a digest that the same bytes already
/// produced.
///
/// Layout: each shard is a contiguous array of 8-way sets plus a dense
/// array of slots (domain, digest, signature bytes). A set packs each
/// way's fingerprint, LRU stamp and slot index. A probe hashes the
/// signature once, scans the eight fingerprints of one set and compares
/// full bytes only on a fingerprint match; eviction drops the oldest
/// stamp in that set and refills its slot in place, keeping the
/// signature buffer, so a warm cache allocates nothing per insert. Each
/// shard starts with one set and doubles whenever an insert lands in a
/// full set, up to its share of `capacity` (rounded down to a power of
/// two number of sets); slots are only created per resident entry, so
/// a hot-set cache stays small.
///
/// Thread-safe: each shard is guarded by its own mutex, so the
/// BatchVerifier's pool workers and many client threads can share one
/// instance. Hit/miss/eviction telemetry accrues both in the cache-global
/// stats and, per call, in the caller's CryptoCounters sink (so per-query
/// cost accounting sees its own cache traffic).
class RecoveredDigestCache {
 public:
  struct Options {
    /// Maximum resident entries across all shards (0 disables caching:
    /// every Lookup misses and Insert is a no-op).
    size_t capacity = 1 << 16;
    /// Power-of-two shard count; sized for low contention at the
    /// BatchVerifier's default worker counts.
    size_t shards = 8;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  RecoveredDigestCache() : RecoveredDigestCache(Options{}) {}
  explicit RecoveredDigestCache(Options options);

  RecoveredDigestCache(const RecoveredDigestCache&) = delete;
  RecoveredDigestCache& operator=(const RecoveredDigestCache&) = delete;

  /// Looks up `sig` under `domain` (the signing-key version). On hit,
  /// stores the digest in `*out`, refreshes recency, and ticks the hit
  /// counters; on miss ticks the miss counters. `counters` may be null.
  bool Lookup(uint64_t domain, const Signature& sig, Digest* out,
              CryptoCounters* counters = nullptr);

  /// Inserts (or refreshes) sig -> digest under `domain`, evicting the
  /// least-recently-used entry of the signature's set when it is full and
  /// the shard is at its capacity.
  void Insert(uint64_t domain, const Signature& sig, const Digest& digest,
              CryptoCounters* counters = nullptr);

  /// Drops every entry (all shards). Telemetry counters are kept.
  void Clear();

  Stats stats() const;
  size_t capacity() const { return options_.capacity; }

 private:
  static constexpr size_t kWays = 8;

  /// One cached recovery in one cache line. A Signature keeps a 16-byte
  /// AES stand-in inline; an RSA signature's heap buffer is kept when the
  /// slot is refilled (copy-assignment reuses it), so a warm slot is
  /// reused without allocating.
  struct alignas(64) Slot {
    uint64_t domain = 0;
    Digest digest;
    Signature sig;
  };
  static_assert(sizeof(Slot) == 64);

  /// One 8-way set in two cache lines: the fingerprints a probe scans,
  /// then the stamps and slot references only an eviction or a
  /// fingerprint match reads.
  struct alignas(64) Set {
    std::array<uint64_t, kWays> fingerprints{};
    /// Shard-clock stamp of each way's last hit/insert (per-set LRU).
    /// Compared as wrapping ages (clock - stamp), so the clock may wrap.
    std::array<uint32_t, kWays> stamps{};
    /// 1 + the way's index into Shard::slots; 0 marks an empty way.
    std::array<uint32_t, kWays> slot_refs{};
  };
  static_assert(sizeof(Set) == 128);

  struct Shard {
    std::mutex mu;
    /// Power-of-two count, doubled on demand up to max_sets_.
    std::vector<Set> sets;
    /// Dense: one slot per resident entry, so memory follows the number
    /// of entries, not the number of sets.
    std::vector<Slot> slots;
    uint32_t clock = 0;  ///< bumped on every hit/insert
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(uint64_t fp) const {
    return *shards_[fp & (shards_.size() - 1)];
  }

  Set& SetFor(Shard& shard, uint64_t fp) const {
    return shard.sets[(fp >> shard_bits_) & (shard.sets.size() - 1)];
  }

  /// The way of `set` holding exactly `sig`, or kWays.
  static size_t Find(const Shard& shard, const Set& set, uint64_t fp,
                     const Signature& sig);

  /// The way an insert into `set` takes: the first empty way, else the
  /// least recently stamped one.
  size_t Victim(const Set& set, uint32_t clock) const;

  /// Doubles `shard`'s set array, moving every way to its new set (the
  /// shard mutex must be held). Slots stay where they are.
  void Grow(Shard* shard) const;

  /// Forges fingerprint collisions in tests/verify_cache_test.cc.
  friend class RecoveredDigestCacheTestPeer;

  Options options_;
  int shard_bits_ = 0;
  /// Per-shard bounds: sets * ways never exceeds capacity / shards.
  size_t max_sets_ = 0;
  size_t ways_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_
