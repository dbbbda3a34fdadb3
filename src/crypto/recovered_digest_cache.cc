#include "crypto/recovered_digest_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace vbtree {

namespace {

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer: enough avalanche for ciphertext-like keys.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Folds one word into the running fingerprint: a full 64x64->128
/// multiply whose halves are xored, so high input bits reach low output
/// bits before the next word lands.
inline uint64_t FoldWord(uint64_t h, uint64_t word) {
  unsigned __int128 p =
      static_cast<unsigned __int128>(h ^ word) * 0x9e3779b97f4a7c15ULL;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

}  // namespace

size_t SignatureHash::operator()(const Signature& s) const {
  // One multiply per 8-byte word (two for the 16-byte AES stand-in,
  // sixteen for RSA-1024), seeded with the length so a signature and a
  // longer one sharing its prefix fingerprint apart. The fingerprint is
  // never a trust boundary; it only has to spread ciphertext-like keys.
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  const uint8_t* p = s.data();
  size_t n = s.size();
  uint64_t h = Mix64(n);
  for (; n >= 8; p += 8, n -= 8) h = FoldWord(h, Load64(p));
  if (n > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = FoldWord(h, tail);
  }
  return static_cast<size_t>(Mix64(h));
}

RecoveredDigestCache::RecoveredDigestCache(Options options)
    : options_(options) {
  // Round the shard count down to a power of two so the low fingerprint
  // bits pick the shard and the next bits pick the set. No more shards
  // than entries, so every shard's share of the capacity is whole.
  const size_t shards = std::bit_floor(std::clamp<size_t>(
      options_.shards, 1, std::max<size_t>(options_.capacity, 1)));
  shard_bits_ = std::countr_zero(shards);
  const size_t per_shard = options_.capacity / shards;
  ways_ = std::min(per_shard, kWays);
  max_sets_ = per_shard == 0
                  ? 0
                  : std::bit_floor(std::max<size_t>(per_shard / kWays, 1));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    if (max_sets_ > 0) shards_.back()->sets.resize(1);
  }
}

size_t RecoveredDigestCache::Find(const Shard& shard, const Set& set,
                                  uint64_t fp, const Signature& sig) {
  for (size_t w = 0; w < kWays; ++w) {
    // The fingerprint only narrows the scan; a hit needs the full bytes.
    if (set.fingerprints[w] == fp && set.slot_refs[w] != 0 &&
        shard.slots[set.slot_refs[w] - 1].sig == sig) {
      return w;
    }
  }
  return kWays;
}

size_t RecoveredDigestCache::Victim(const Set& set, uint32_t clock) const {
  size_t victim = 0;
  uint32_t oldest_age = 0;
  for (size_t w = 0; w < ways_; ++w) {
    if (set.slot_refs[w] == 0) return w;
    const uint32_t age = clock - set.stamps[w];
    if (age > oldest_age) {
      victim = w;
      oldest_age = age;
    }
  }
  return victim;
}

bool RecoveredDigestCache::Lookup(uint64_t domain, const Signature& sig,
                                  Digest* out, CryptoCounters* counters) {
  if (max_sets_ == 0) {
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_misses);
    return false;
  }
  const uint64_t fp = SignatureHash{}(sig);
  Shard& shard = ShardFor(fp);
  std::lock_guard lock(shard.mu);
  Set& set = SetFor(shard, fp);
  const size_t way = Find(shard, set, fp, sig);
  // A resident entry from another key epoch is a miss: recovery is only
  // a pure function of the bytes *under one public key*.
  if (way == kWays || shard.slots[set.slot_refs[way] - 1].domain != domain) {
    shard.misses++;
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_misses);
    return false;
  }
  set.stamps[way] = ++shard.clock;
  *out = shard.slots[set.slot_refs[way] - 1].digest;
  shard.hits++;
  if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_hits);
  return true;
}

void RecoveredDigestCache::Grow(Shard* shard) const {
  const size_t old_count = shard->sets.size();
  std::vector<Set> grown(old_count * 2);
  // Doubling adds one index bit, so set i splits into sets i and
  // i + old_count and no new set receives more than kWays ways.
  for (const Set& old : shard->sets) {
    for (size_t w = 0; w < kWays; ++w) {
      if (old.slot_refs[w] == 0) continue;
      Set& dst = grown[(old.fingerprints[w] >> shard_bits_) &
                       (grown.size() - 1)];
      const size_t d = Victim(dst, 0);
      dst.fingerprints[d] = old.fingerprints[w];
      dst.stamps[d] = old.stamps[w];
      dst.slot_refs[d] = old.slot_refs[w];
    }
  }
  shard->sets = std::move(grown);
}

void RecoveredDigestCache::Insert(uint64_t domain, const Signature& sig,
                                  const Digest& digest,
                                  CryptoCounters* counters) {
  if (max_sets_ == 0) return;
  const uint64_t fp = SignatureHash{}(sig);
  Shard& shard = ShardFor(fp);
  std::lock_guard lock(shard.mu);
  Set* set = &SetFor(shard, fp);
  size_t way = Find(shard, *set, fp, sig);
  if (way != kWays) {
    // Refresh: same bytes under a rotated key overwrite the stale epoch.
    Slot& slot = shard.slots[set->slot_refs[way] - 1];
    slot.domain = domain;
    slot.digest = digest;
    set->stamps[way] = ++shard.clock;
    return;
  }
  way = Victim(*set, shard.clock);
  while (set->slot_refs[way] != 0 && shard.sets.size() < max_sets_) {
    Grow(&shard);
    set = &SetFor(shard, fp);
    way = Victim(*set, shard.clock);
  }
  if (set->slot_refs[way] == 0) {
    shard.slots.emplace_back();
    set->slot_refs[way] = static_cast<uint32_t>(shard.slots.size());
  } else {
    shard.evictions++;
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_evictions);
  }
  set->fingerprints[way] = fp;
  set->stamps[way] = ++shard.clock;
  Slot& slot = shard.slots[set->slot_refs[way] - 1];
  slot.domain = domain;
  slot.digest = digest;
  slot.sig = sig;
}

void RecoveredDigestCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    if (max_sets_ > 0) shard->sets.assign(1, Set{});
    shard->slots = std::vector<Slot>();
  }
}

RecoveredDigestCache::Stats RecoveredDigestCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->slots.size();
  }
  return s;
}

}  // namespace vbtree
