// Ablation (google-benchmark): the §3.2 commutative hash
// (G^x mod 2^128: Combine through the fixed-base comb, Extend by
// square-and-multiply) versus an order-dependent
// SHA-256 chain for combining digests.
//
// The chained variant is faster per operation but forfeits the three
// §3.2 properties: order-free combination (so VOs would need structure),
// edge-side projection, and incremental inserts. This quantifies what
// the paper's choice costs.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "crypto/commutative_hash.h"

namespace vbtree {
namespace {

std::vector<Digest> MakeDigests(size_t n) {
  Rng rng(42);
  std::vector<Digest> out(n);
  for (auto& d : out) {
    for (auto& b : d.bytes) b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

void BM_CommutativeCombine(benchmark::State& state) {
  CommutativeHash g;
  std::vector<Digest> digests = MakeDigests(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Combine(digests));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CommutativeCombine)->Arg(10)->Arg(114)->Arg(1000);

void BM_ChainedShaCombine(benchmark::State& state) {
  ChainedHash chained;
  std::vector<Digest> digests = MakeDigests(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chained.Combine(digests));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainedShaCombine)->Arg(10)->Arg(114)->Arg(1000);

void BM_IncrementalExtend(benchmark::State& state) {
  // The §3.4 insert primitive: fold one digest into an accumulator.
  CommutativeHash g;
  std::vector<Digest> digests = MakeDigests(256);
  Digest acc = g.Identity();
  size_t i = 0;
  for (auto _ : state) {
    acc = g.Extend(acc, digests[i++ & 255]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalExtend);

void BM_ChainedRecombineAfterInsert(benchmark::State& state) {
  // What an insert would cost with the order-dependent hash: re-chaining
  // the whole node (no incremental update exists).
  ChainedHash chained;
  std::vector<Digest> digests = MakeDigests(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chained.Combine(digests));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChainedRecombineAfterInsert)->Arg(114);

}  // namespace
}  // namespace vbtree

BENCHMARK_MAIN();
