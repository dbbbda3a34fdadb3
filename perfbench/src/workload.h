// Workload definitions and the seeded input generator.
//
// Every input the harness hands the system — seed rows, the insert
// stream, and each reader's batch stream — is a pure function of the
// workload and the seed. The system only ever sees the generated values.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/random.h"
#include "query/predicate.h"

namespace perfbench {

/// Key layout: shard s owns keys [s * kShardSpan, (s + 1) * kShardSpan).
/// Its seed rows take the dense keys at the bottom of that span, and its
/// inserts land uniformly in the upper half, so inserts spread over every
/// shard but never fall inside a read range. Read result sets therefore
/// stay the same size however long a run lasts, and every answer can be
/// checked against the exact generated key set.
inline constexpr int64_t kShardSpan = int64_t{1} << 40;
/// The paper schema (bench/bench_util.h): an INT64 id and 9 string
/// attributes of kAttrLen serialized bytes each.
inline constexpr size_t kColumns = 10;
inline constexpr size_t kAttrLen = 20;
inline constexpr size_t kBatchQueries = 8;
inline constexpr double kZipfTheta = 0.99;
/// Closed-loop reader threads and open-loop writer threads per workload.
inline constexpr size_t kReaders = 2;
inline constexpr size_t kWriters = 1;

struct WorkloadSpec {
  const char* name;
  bool rsa;
  size_t shards;
  size_t rows;
  /// Seed keys per range query.
  size_t range_keys;
  /// Zipf-skewed range starts; false: uniform.
  bool zipf;
  /// Open-loop insert rate, concurrent with the reads.
  double insert_rate;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists: perfbench/README.md and BENCHMARK.json.
  // Write rates are at most a third of the closed-loop insert capacity.
  //   name         rsa    shards rows    keys zipf   rate
  static const std::vector<WorkloadSpec> specs = {
      {"cold_scan", false, 4,     200000, 64,  false, 500.0},
      {"rsa_mixed", true,  1,     2000,   16,  true,  65.0},
  };
  return specs;
}

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Mixes the run seed with a stream tag so streams are independent.
inline uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  vbtree::Rng rng(seed * 0x9E3779B97F4A7C15ULL + tag);
  return rng.Next();
}

inline size_t RowsPerShard(const WorkloadSpec& spec) {
  return spec.rows / spec.shards;
}

/// Key of seed row `i` (0 <= i < spec.rows).
inline int64_t SeedKey(const WorkloadSpec& spec, size_t i) {
  const size_t per = RowsPerShard(spec);
  return static_cast<int64_t>(i / per) * kShardSpan +
         static_cast<int64_t>(i % per);
}

struct Inputs {
  std::vector<vbtree::Tuple> seed_rows;
  std::vector<vbtree::Tuple> inserts;
  /// Split points in key space (shards - 1 entries).
  std::vector<int64_t> splits;
};

/// `insert_count` is how many inserts the run can consume at most.
inline Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                         size_t insert_count) {
  Inputs in;
  const vbtree::Schema schema = vbtree::bench::PaperSchema(kColumns);
  vbtree::Rng rows_rng(StreamSeed(seed, 1));
  in.seed_rows.reserve(spec.rows);
  for (size_t i = 0; i < spec.rows; ++i) {
    in.seed_rows.push_back(
        vbtree::bench::PaperTuple(schema, SeedKey(spec, i), &rows_rng, kAttrLen));
  }
  vbtree::Rng ins_rng(StreamSeed(seed, 2));
  std::unordered_set<int64_t> used;
  in.inserts.reserve(insert_count);
  while (in.inserts.size() < insert_count) {
    const int64_t shard = static_cast<int64_t>(ins_rng.Uniform(spec.shards));
    const int64_t key = shard * kShardSpan + kShardSpan / 2 +
                        static_cast<int64_t>(ins_rng.Uniform(kShardSpan / 2));
    if (!used.insert(key).second) continue;
    in.inserts.push_back(
        vbtree::bench::PaperTuple(schema, key, &ins_rng, kAttrLen));
  }
  for (size_t s = 1; s < spec.shards; ++s) {
    in.splits.push_back(static_cast<int64_t>(s) * kShardSpan);
  }
  return in;
}

/// One reader's endless, seeded stream of query batches: kBatchQueries
/// ranges of `range_keys` consecutive seed keys each (a range never
/// crosses a shard's seed block), odd slots projected to 3 columns.
class BatchStream {
 public:
  BatchStream(const WorkloadSpec& spec, uint64_t seed, size_t reader)
      : spec_(spec),
        starts_(spec.rows - spec.range_keys + 1),
        uniform_(StreamSeed(seed, 100 + reader)) {
    if (spec.zipf) {
      zipf_ = std::make_unique<vbtree::ZipfGenerator>(
          starts_, kZipfTheta, StreamSeed(seed, 200 + reader));
    }
  }

  vbtree::QueryBatch Next() {
    const size_t per = RowsPerShard(spec_);
    vbtree::QueryBatch batch;
    batch.table = "events";
    batch.queries.reserve(kBatchQueries);
    for (size_t i = 0; i < kBatchQueries; ++i) {
      size_t start = zipf_ != nullptr ? zipf_->Next() % starts_
                                      : uniform_.Uniform(starts_);
      if (start % per + spec_.range_keys > per) {
        start = start - start % per + per - spec_.range_keys;
      }
      vbtree::SelectQuery q;
      q.range.lo = SeedKey(spec_, start);
      q.range.hi = q.range.lo + static_cast<int64_t>(spec_.range_keys) - 1;
      if (i % 2 == 1) q.projection = {0, 1, 2};
      batch.queries.push_back(std::move(q));
    }
    return batch;
  }

 private:
  const WorkloadSpec& spec_;
  uint64_t starts_;
  vbtree::Rng uniform_;
  std::unique_ptr<vbtree::ZipfGenerator> zipf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
