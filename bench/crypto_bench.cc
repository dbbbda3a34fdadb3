// Microbenchmark for the client verification fast path: what one
// signature recovery costs through each layer — raw Recover (SimSigner
// AES and real RSA), a RecoveredDigestCache hit, a pooled once-per-batch
// recovery consumed by index, a miss-then-insert on a thrashing cache —
// what the exponent-folded commutative combine and its fixed-base comb
// buy over the chained form, and what copying a signature and interning
// a batch's signatures into the wire-v2 pool cost. The Recover-vs-cache
// ratio decides where the RecoveredDigestCache pays: the bench prints it
// next to each recoverer's recover_outcosts_cache_hit() property, the
// rule the client applies, and `attr_digest` times formula (1) end to
// end (preimage assembly plus hash).
//
// Plain executable (no google-benchmark dependency), like the fig*
// harnesses. `--json` emits the CI artifact BENCH_crypto.json.
//
//   ./build/bench/crypto_bench --json > BENCH_crypto.json
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "crypto/commutative_hash.h"
#include "crypto/hash.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/rsa_signer.h"
#include "crypto/sim_signer.h"
#include "vbtree/digest_schema.h"
#include "vbtree/verification_object.h"

using namespace vbtree;
using vbtree::bench::Timer;

namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

/// Runs `fn` until ~`min_ms` of wall time has elapsed (at least
/// `min_iters`), returning nanoseconds per call.
template <typename Fn>
double NsPerOp(Fn&& fn, size_t batch = 1024, double min_ms = 80.0,
               size_t min_iters = 4096) {
  // Warm-up pass keeps one-time setup (EVP fetches, cache fills) out of
  // the measurement.
  for (size_t i = 0; i < batch; ++i) fn();
  Timer t;
  size_t iters = 0;
  while (t.ElapsedMs() < min_ms || iters < min_iters) {
    for (size_t i = 0; i < batch; ++i) fn();
    iters += batch;
  }
  return t.ElapsedMs() * 1e6 / static_cast<double>(iters);
}

struct Measurement {
  std::string name;
  double ns_per_op = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }

  Rng rng(7);
  std::vector<Measurement> ms;

  // --- Cost_h: one attribute digest ---------------------------------------
  {
    std::string preimage = rng.NextString(60);
    ms.push_back({"attr_hash_sha256",
                  NsPerOp([&] {
                    Digest d = HashToDigest(HashAlgorithm::kSha256,
                                            Slice(preimage));
                    (void)d;
                  })});
  }
  {
    // Formula (1) as the verifier pays it: preimage assembly from the
    // column's names, the key and a 20-byte value (the paper's 200-byte,
    // 10-attribute tuple), then the hash.
    std::vector<Column> cols;
    cols.emplace_back("id", TypeId::kInt64);
    for (int c = 1; c < 10; ++c) {
      cols.emplace_back("a" + std::to_string(c), TypeId::kString);
    }
    DigestSchema ds("benchdb", "orders", Schema(std::move(cols)));
    std::vector<Value> values;
    for (int c = 1; c < 10; ++c) {
      values.push_back(Value::Str(rng.NextString(20)));
    }
    int64_t key = 0;
    ms.push_back({"attr_digest",
                  NsPerOp([&] {
                    const size_t c = 1 + static_cast<size_t>(key % 9);
                    Digest d = ds.AttributeDigest(key, c, values[c - 1]);
                    (void)d;
                    ++key;
                  })});
  }

  // --- Cost_s: raw recovery, sim (AES) and real (RSA) ---------------------
  SimSigner signer(2024);
  SimRecoverer recoverer(signer.key_material());
  std::vector<Signature> sigs;
  const size_t kSigs = 4096;
  sigs.reserve(kSigs);
  for (size_t i = 0; i < kSigs; ++i) {
    sigs.push_back(signer.Sign(RandomDigest(&rng)).ValueOrDie());
  }
  {
    size_t i = 0;
    ms.push_back({"sim_recover",
                  NsPerOp([&] {
                    auto d = recoverer.Recover(sigs[i++ % kSigs]);
                    (void)d;
                  })});
  }
  bool rsa_outcosts_cache_hit = false;
  {
    auto rsa_signer = RsaSigner::Generate(1024).MoveValueUnsafe();
    auto rsa_rec = rsa_signer->MakeRecoverer().MoveValueUnsafe();
    rsa_outcosts_cache_hit = rsa_rec->recover_outcosts_cache_hit();
    Signature rsa_sig =
        rsa_signer->Sign(RandomDigest(&rng)).ValueOrDie();
    ms.push_back({"rsa1024_recover",
                  NsPerOp(
                      [&] {
                        auto d = rsa_rec->Recover(rsa_sig);
                        (void)d;
                      },
                      /*batch=*/64, /*min_ms=*/120.0, /*min_iters=*/256)});
  }

  // --- cache hit: what a memoized recovery costs --------------------------
  RecoveredDigestCache cache;
  for (const Signature& s : sigs) {
    cache.Insert(1, s, recoverer.Recover(s).ValueOrDie());
  }
  {
    size_t i = 0;
    Digest d;
    ms.push_back({"digest_cache_hit",
                  NsPerOp([&] {
                    bool hit = cache.Lookup(1, sigs[i++ % kSigs], &d);
                    (void)hit;
                  })});
  }

  {
    // The cold path: a lookup miss, the recovery it forces, then an
    // insert that evicts from a full cache. The working set is 4x the
    // capacity, so almost every probe misses, as under uniform scans.
    RecoveredDigestCache::Options small;
    small.capacity = kSigs / 4;
    RecoveredDigestCache cold(small);
    for (const Signature& s : sigs) {
      cold.Insert(1, s, recoverer.Recover(s).ValueOrDie());
    }
    size_t i = 0;
    Digest d;
    ms.push_back({"digest_cache_miss_insert",
                  NsPerOp([&] {
                    const Signature& s = sigs[i++ % kSigs];
                    if (!cold.Lookup(1, s, &d)) {
                      d = recoverer.Recover(s).ValueOrDie();
                      cold.Insert(1, s, d);
                    }
                  })});
  }

  // --- signature handling: copies and batch-pool interning ---------------
  {
    // Copy-construct (and later destroy) one 16-byte signature, as a
    // copy-on-write leaf clone does for each of a row's signatures.
    std::vector<Signature> out;
    out.reserve(kSigs);
    ms.push_back({"signature_copy_16",
                  NsPerOp([&] {
                    if (out.size() == kSigs) out.clear();
                    out.push_back(sigs[out.size()]);
                  })});
  }
  for (size_t len : {16u, 128u}) {
    // One batch's worth of interns (8 queries of ~150 signatures) into a
    // fresh pool, about half of them repeats (overlapping envelopes
    // re-ship boundary signatures); reported per Intern call.
    const size_t kBatch = 1200;
    std::vector<Signature> seq;
    seq.reserve(kBatch);
    while (seq.size() < kBatch) {
      if (!seq.empty() && rng.OneIn(2)) {
        seq.push_back(seq[rng.Uniform(seq.size())]);
      } else {
        Signature s(len, 0);
        for (auto& b : s) b = static_cast<uint8_t>(rng.Next());
        seq.push_back(std::move(s));
      }
    }
    const double ns_per_batch = NsPerOp(
        [&] {
          SignaturePool pool;
          for (const Signature& s : seq) (void)pool.Intern(s);
        },
        /*batch=*/16, /*min_ms=*/80.0, /*min_iters=*/64);
    ms.push_back({"pool_intern_" + std::to_string(len),
                  ns_per_batch / static_cast<double>(kBatch)});
  }

  // --- Cost_k: chained vs exponent-folded combine -------------------------
  CommutativeHash g;
  {
    // G^e from the fixed-base comb: the single exponentiation that every
    // folded Combine (and the server's FromExponent) ends in.
    Uint128 e = RandomDigest(&rng).ToUint128();
    ms.push_back({"combine_fixed_base",
                  NsPerOp([&] {
                    Digest d = g.FromExponent(e);
                    e = d.ToUint128();  // chain so calls cannot overlap
                  })});
  }
  for (size_t m : {4u, 16u, 64u}) {
    std::vector<Digest> set;
    for (size_t i = 0; i < m; ++i) set.push_back(RandomDigest(&rng));
    ms.push_back({"combine_chained_m" + std::to_string(m),
                  NsPerOp([&] {
                    Digest acc = g.Identity();
                    for (const Digest& d : set) acc = g.Extend(acc, d);
                    (void)acc;
                  })});
    ms.push_back({"combine_folded_m" + std::to_string(m),
                  NsPerOp([&] {
                    Digest d = g.Combine(set);
                    (void)d;
                  })});
  }

  // --- derived ratios ------------------------------------------------------
  auto find = [&](const std::string& name) -> double {
    for (const Measurement& m : ms) {
      if (m.name == name) return m.ns_per_op;
    }
    return 0;
  };
  const double recover_ns = find("sim_recover");
  const double hit_ns = find("digest_cache_hit");
  const double recover_vs_cache =
      hit_ns > 0 ? recover_ns / hit_ns : 0;
  // The rule the BatchVerifier applies: consult the cross-batch cache only
  // for recoverers whose Recover outcosts a hit.
  const std::pair<const char*, bool> cache_rule[] = {
      {"sim", recoverer.recover_outcosts_cache_hit()},
      {"sim_wf2",
       SimRecoverer(signer.key_material(), nullptr, /*work_factor=*/2)
           .recover_outcosts_cache_hit()},
      {"rsa1024", rsa_outcosts_cache_hit},
  };
  const double fold_speedup_m16 =
      find("combine_folded_m16") > 0
          ? find("combine_chained_m16") / find("combine_folded_m16")
          : 0;

  if (json) {
    std::printf("{\n  \"bench\": \"crypto_bench\",\n");
    for (const Measurement& m : ms) {
      std::printf("  \"%s_ns\": %.1f,\n", m.name.c_str(), m.ns_per_op);
    }
    std::printf("  \"recover_vs_cache_hit\": %.1f,\n", recover_vs_cache);
    for (const auto& [name, uses_cache] : cache_rule) {
      std::printf("  \"%s_recover_outcosts_cache_hit\": %s,\n", name,
                  uses_cache ? "true" : "false");
    }
    std::printf("  \"combine_fold_speedup_m16\": %.2f\n", fold_speedup_m16);
    std::printf("}\n");
  } else {
    vbtree::bench::PrintHeader(
        "crypto_bench: verification fast-path primitives",
        "per-op cost of recovery, cache hits, and digest recombination");
    for (const Measurement& m : ms) {
      std::printf("%-24s %10.1f ns/op\n", m.name.c_str(), m.ns_per_op);
    }
    std::printf("recover / cache-hit ratio: %.1fx\n", recover_vs_cache);
    for (const auto& [name, uses_cache] : cache_rule) {
      std::printf("  %-8s recover outcosts a cache hit: %s\n", name,
                  uses_cache ? "yes (cache consulted)" : "no (cache skipped)");
    }
    std::printf("combine fold speedup (m=16): %.2fx\n", fold_speedup_m16);
  }
  return 0;
}
