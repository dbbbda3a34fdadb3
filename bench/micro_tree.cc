// Micro-benchmarks (google-benchmark) for end-to-end VB-tree operations
// across table sizes: bulk build (central), query + VO construction
// (edge), and verification (client). Complements the per-figure benches
// with wall-clock scaling data.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "vbtree/verifier.h"

namespace vbtree {
namespace {

std::unique_ptr<bench::BenchTable>& CachedTable(size_t n) {
  static std::map<size_t, std::unique_ptr<bench::BenchTable>> cache;
  auto& slot = cache[n];
  if (slot == nullptr) {
    slot = bench::BuildBenchTable(n, 10, 20, /*with_naive=*/false);
  }
  return slot;
}

void BM_BulkBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto table = bench::BuildBenchTable(n, 10, 20, /*with_naive=*/false);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkBuild)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_QueryWithVO(benchmark::State& state) {
  auto& table = CachedTable(10000);
  if (table == nullptr) {
    state.SkipWithError("table build failed");
    return;
  }
  SelectQuery q;
  q.table = "t";
  q.range = KeyRange{0, state.range(0) - 1};
  for (auto _ : state) {
    auto out = table->tree->ExecuteSelect(q, table->Fetcher());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QueryWithVO)->Arg(10)->Arg(100)->Arg(1000);

void BM_VerifyResult(benchmark::State& state) {
  auto& table = CachedTable(10000);
  if (table == nullptr) {
    state.SkipWithError("table build failed");
    return;
  }
  SelectQuery q;
  q.table = "t";
  q.range = KeyRange{0, state.range(0) - 1};
  auto out = table->tree->ExecuteSelect(q, table->Fetcher());
  if (!out.ok()) {
    state.SkipWithError("query failed");
    return;
  }
  SimRecoverer rec(table->signer->key_material());
  const DigestSchema ds = table->MakeDigestSchema();
  Verifier verifier(ds, &rec);
  for (auto _ : state) {
    Status s = verifier.VerifySelect(q, out->rows, out->vo);
    if (!s.ok()) {
      state.SkipWithError("verification failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifyResult)->Arg(10)->Arg(100)->Arg(1000);

void BM_PointQueryWithVO(benchmark::State& state) {
  auto& table = CachedTable(10000);
  if (table == nullptr) {
    state.SkipWithError("table build failed");
    return;
  }
  int64_t key = 0;
  for (auto _ : state) {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{key, key};
    key = (key + 7919) % 10000;
    auto out = table->tree->ExecuteSelect(q, table->Fetcher());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointQueryWithVO);

void BM_TreeSerialize(benchmark::State& state) {
  auto& table = CachedTable(10000);
  if (table == nullptr) {
    state.SkipWithError("table build failed");
    return;
  }
  for (auto _ : state) {
    ByteWriter w(1 << 20);
    table->tree->SerializeTo(&w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeSerialize)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vbtree

BENCHMARK_MAIN();
