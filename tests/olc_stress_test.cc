// OLC stress suite: latch-free readers racing structural writers on the
// VB-tree, with every answer authenticated. The linearizability check is
// exact, not statistical — the churn writer inserts *consecutive* keys,
// and every tree mutation bumps the version by exactly one, so an answer
// labeled with read_version L must contain precisely the base keys plus
// the first L churn keys. Any torn read (a key missing, duplicated, or
// from a mix of two tree states) fails the key-set comparison or the
// client-side verification.
//
// Runs under the regular build and all three sanitizer builds; the TSan
// CI job (`ci.sh --sanitize=thread`) leans on this file to surface data
// races the version-validation protocol might otherwise hide.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "edge/client.h"
#include "edge/replica_store.h"
#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTuple;
using testutil::MakeWideSchema;

/// Synthetic Rid for key-addressed stress tuples (no TableHeap: the
/// striped ReplicaStore is the thread-safe fetch target the edge layer
/// actually uses under concurrency).
Rid RidFor(int64_t key) {
  return Rid{static_cast<int32_t>(key >> 16),
             static_cast<uint16_t>(key & 0xFFFF)};
}

/// Central-in-miniature over a ReplicaStore: signer-owning VB-tree whose
/// leaf Rids resolve through the striped store, so readers can fetch
/// while a writer concurrently Puts (publication order: store first,
/// then tree — same discipline as edge delta replay).
struct StressDb {
  Schema schema = MakeWideSchema(4);
  SimSigner signer{/*key_seed=*/7};
  SimRecoverer recoverer{signer.key_material()};
  ReplicaStore store;
  std::unique_ptr<VBTree> tree;
  size_t base = 0;

  explicit StressDb(size_t n, int fanout = 8) : base(n) {
    VBTreeOptions opts;
    opts.config.max_internal = fanout;
    opts.config.max_leaf = fanout;
    DigestSchema ds("stressdb", "t", schema, opts.hash_algo,
                    opts.modulus_bits);
    tree = std::make_unique<VBTree>(std::move(ds), opts, &signer);
    Rng rng(42);
    std::vector<std::pair<Tuple, Rid>> pairs;
    pairs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Tuple t = MakeTuple(schema, static_cast<int64_t>(i), &rng);
      Rid rid = RidFor(static_cast<int64_t>(i));
      EXPECT_TRUE(store.Put(rid, t).ok());
      pairs.emplace_back(std::move(t), rid);
    }
    EXPECT_TRUE(tree->BulkLoad(pairs).ok());
  }

  Verifier MakeVerifier() {
    return Verifier(tree->digest_schema(), &recoverer);
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) const {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    return q;
  }

  /// Inserts churn key base+seq (store first, then tree).
  Status InsertChurn(int64_t seq, Rng* rng) {
    int64_t key = static_cast<int64_t>(base) + seq;
    Tuple t = MakeTuple(schema, key, rng);
    Status put = store.Put(RidFor(key), t);
    if (!put.ok()) return put;
    return tree->Insert(t, RidFor(key));
  }
};

/// The exact-answer assertion: an answer labeled L over the full domain
/// must be keys 0 .. base+L-1, contiguous, and must authenticate.
void ExpectExactAtLabel(StressDb* db, const SelectQuery& q,
                        const QueryOutput& out, int64_t churn_total) {
  const uint64_t label = out.read_version;
  ASSERT_LE(label, static_cast<uint64_t>(churn_total))
      << "label exceeds the number of mutations ever applied";
  const int64_t expect_n =
      static_cast<int64_t>(db->base) + static_cast<int64_t>(label);
  ASSERT_EQ(out.rows.size(), static_cast<size_t>(expect_n))
      << "row count does not match the labeled version " << label;
  for (int64_t i = 0; i < expect_n; ++i) {
    ASSERT_EQ(out.rows[static_cast<size_t>(i)].key, i)
        << "non-contiguous key set at labeled version " << label;
  }
  Verifier v = db->MakeVerifier();
  ASSERT_TRUE(v.VerifySelect(q, out.rows, out.vo).ok())
      << "answer at labeled version " << label << " failed authentication";
}

// ---------------------------------------------------------------------------
// Readers race a splitting writer; every answer is exact for its label.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, ReadersRaceInsertsExactAtLabel) {
  constexpr size_t kBase = 256;
  constexpr int64_t kChurn = 200;
  constexpr int kReaders = 3;
  StressDb db(kBase);

  std::atomic<bool> done{false};
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    Rng rng(7001);
    for (int64_t seq = 0; seq < kChurn; ++seq) {
      if (!db.InsertChurn(seq, &rng).ok()) {
        writer_ok = false;
        break;
      }
    }
    done = true;
  });

  std::atomic<uint64_t> total_restarts{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) + kChurn);
      uint64_t restarts = 0;
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        restarts += out->stats.olc_restarts;
        ExpectExactAtLabel(&db, q, *out, kChurn);
      }
      total_restarts.fetch_add(restarts, std::memory_order_relaxed);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_ok.load());
  EXPECT_EQ(db.tree->version(), static_cast<uint64_t>(kChurn));
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
  // A final quiesced read restarts zero times and sees everything.
  SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) + kChurn);
  auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.olc_restarts, 0u);
  ExpectExactAtLabel(&db, q, *out, kChurn);
}

// ---------------------------------------------------------------------------
// Batches converge on ONE label while the writer splits under them.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, BatchConvergesOnOneLabelUnderChurn) {
  constexpr size_t kBase = 256;
  constexpr int64_t kChurn = 150;
  StressDb db(kBase);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(7002);
    for (int64_t seq = 0; seq < kChurn; ++seq) {
      ASSERT_TRUE(db.InsertChurn(seq, &rng).ok());
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const int64_t hi = static_cast<int64_t>(kBase) + kChurn;
      // Overlapping windows: the full domain plus three staggered
      // sub-ranges, so the batch exercises the shared fetch memo while
      // converging.
      std::vector<SelectQuery> queries = {
          db.RangeQuery(0, hi), db.RangeQuery(0, hi / 2),
          db.RangeQuery(hi / 4, 3 * hi / 4), db.RangeQuery(hi / 2, hi)};
      Verifier v = db.MakeVerifier();
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        VBBatchStats bs;
        auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(),
                                                &bs);
        ASSERT_TRUE(outs.ok()) << outs.status().ToString();
        ASSERT_EQ(outs->size(), queries.size());
        // Single-label convergence: every slot carries the batch label.
        for (const QueryOutput& out : *outs) {
          ASSERT_TRUE(out.status.ok()) << out.status.ToString();
          ASSERT_EQ(out.read_version, bs.read_version);
        }
        // Slot 0 covers the full domain: exact contiguity at the label.
        ExpectExactAtLabel(&db, queries[0], (*outs)[0], kChurn);
        // Every slot's answer is the label-consistent slice of slot 0's.
        for (size_t i = 1; i < queries.size(); ++i) {
          const KeyRange& kr = queries[i].range;
          size_t expect = 0;
          for (const ResultRow& row : (*outs)[0].rows) {
            if (row.key >= kr.lo && row.key <= kr.hi) expect++;
          }
          ASSERT_EQ((*outs)[i].rows.size(), expect);
          ASSERT_TRUE(
              v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Splits AND merges: a scratch region churns (insert + range-delete)
// while readers pin an invariant answer on the base region.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, ReadersStableUnderSplitsAndMerges) {
  constexpr size_t kBase = 256;
  StressDb db(kBase);
  const int64_t scratch_lo = static_cast<int64_t>(kBase);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(7003);
    // Each round grows a scratch run past several leaf splits, then
    // range-deletes it (node merges / frees), repeatedly reshaping the
    // right spine readers traverse.
    for (int round = 0; round < 12; ++round) {
      for (int64_t i = 0; i < 40; ++i) {
        int64_t key = scratch_lo + i;
        Tuple t = MakeTuple(db.schema, key, &rng);
        ASSERT_TRUE(db.store.Put(RidFor(key), t).ok());
        ASSERT_TRUE(db.tree->Insert(t, RidFor(key)).ok());
      }
      auto removed = db.tree->DeleteRange(scratch_lo, scratch_lo + 40);
      ASSERT_TRUE(removed.ok());
      ASSERT_EQ(*removed, 40u);
      db.store.RemoveKeyRange(scratch_lo, scratch_lo + 40);
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // The base region never changes: every validated read must return
      // exactly the full base key set no matter how the scratch churn
      // reshapes the tree around it.
      SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) - 1);
      Verifier v = db.MakeVerifier();
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ASSERT_EQ(out->rows.size(), kBase);
        for (size_t i = 0; i < kBase; ++i) {
          ASSERT_EQ(out->rows[i].key, static_cast<int64_t>(i));
        }
        ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(db.tree->size(), kBase);
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Forced-restart injection: every injected restart is counted exactly
// once, and the re-executed reads still authenticate.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, InjectedRestartsAreCountedSingle) {
  StressDb db(200);
  Verifier v = db.MakeVerifier();
  SelectQuery q = db.RangeQuery(0, 500);

  // Quiesced tree: restarts can only come from injection.
  constexpr int kQueries = 20;
  db.tree->InjectRestartsForTest(kQueries);
  uint64_t counted = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
    ASSERT_TRUE(out.ok());
    counted += out->stats.olc_restarts;
    ExpectExactAtLabel(&db, q, *out, /*churn_total=*/0);
    ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
  }
  // One injection per query (the pool drains one per attempt), each
  // surfaced as exactly one counted restart.
  EXPECT_EQ(counted, static_cast<uint64_t>(kQueries));

  // Pool exhausted: the next read is restart-free.
  auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stats.olc_restarts, 0u);
}

TEST(OLCStressTest, InjectedRestartsAreCountedBatch) {
  StressDb db(200);
  Verifier v = db.MakeVerifier();
  std::vector<SelectQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(db.RangeQuery(10 * i, 10 * i + 60));
  }

  constexpr int64_t kInjected = 5;
  db.tree->InjectRestartsForTest(kInjected);
  VBBatchStats bs;
  auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(), &bs);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(bs.olc_restarts, static_cast<uint64_t>(kInjected));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*outs)[i].status.ok());
    EXPECT_EQ((*outs)[i].read_version, bs.read_version);
    ASSERT_TRUE(
        v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
  }
}

// ---------------------------------------------------------------------------
// Label-convergence fallback regression: a writer that commits BETWEEN
// the lock-free stale scan and the fallback writer_mu_ acquisition must
// not leave a slot labeled at the new version with pre-commit rows. The
// batch hook reproduces that interleaving deterministically: churn on
// the right half of the domain forces the batch through every
// convergence pass into the fallback, and at the pre-lock window a
// delete hits the so-far-untouched LEFT slot — exactly the slot the old
// code would have relabeled without re-validation.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, FallbackRevalidatesSlotsInvalidatedBeforeLock) {
  constexpr size_t kBase = 128;
  StressDb db(kBase);
  Rng rng(7004);

  // Slot 0: left half, untouched by the churn inserts. Slot 1: right
  // half plus the churn region, invalidated by every insert.
  std::vector<SelectQuery> queries = {
      db.RangeQuery(0, 63), db.RangeQuery(64, 2000)};

  int64_t churn_seq = 0;
  int pre_lock_calls = 0;
  db.tree->SetBatchLabelHookForTest([&](int pass, bool pre_fallback_lock) {
    if (!pre_fallback_lock) {
      // Keep the right slot stale on every pass so the batch is driven
      // all the way into the pessimistic fallback.
      ASSERT_TRUE(db.InsertChurn(churn_seq++, &rng).ok());
      return;
    }
    // The race window: the stale scan for `pass` has completed, the
    // fallback lock is not yet held. Invalidate the LEFT slot, which
    // that scan just proved valid.
    pre_lock_calls++;
    auto removed = db.tree->DeleteRange(10, 10);
    ASSERT_TRUE(removed.ok());
    ASSERT_EQ(*removed, 1u);
    db.store.RemoveKeyRange(10, 10);
  });

  VBBatchStats bs;
  auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(), &bs);
  db.tree->SetBatchLabelHookForTest(nullptr);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(pre_lock_calls, 1) << "batch never reached the fallback window";

  // Every mutation happened inside the batch, so the single batch label
  // must be the final tree version — churn inserts plus the delete.
  const uint64_t v_final = db.tree->version();
  EXPECT_EQ(static_cast<int64_t>(v_final), churn_seq + 1);
  EXPECT_EQ(bs.read_version, v_final);

  Verifier v = db.MakeVerifier();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*outs)[i].status.ok());
    EXPECT_EQ((*outs)[i].read_version, v_final);
    ASSERT_TRUE(
        v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
  }

  // The left slot claims version v_final, which includes the delete of
  // key 10 — its rows must reflect that, not the pre-delete leaf.
  const std::vector<ResultRow>& left = (*outs)[0].rows;
  ASSERT_EQ(left.size(), 63u);
  for (const ResultRow& row : left) {
    ASSERT_NE(row.key, 10) << "slot labeled " << v_final
                           << " still contains the deleted key";
  }
  // The right slot saw every churn insert: keys 64..127 plus the run of
  // churn keys starting at kBase.
  const std::vector<ResultRow>& right = (*outs)[1].rows;
  ASSERT_EQ(right.size(), 64u + static_cast<size_t>(churn_seq));
  for (size_t i = 0; i < right.size(); ++i) {
    ASSERT_EQ(right[i].key, 64 + static_cast<int64_t>(i));
  }
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Shared replica tuples: the store hands out references to immutable
// tuples, so a holder is never mutated or freed under it (ASan checks the
// lifetime, TSan the races).
// ---------------------------------------------------------------------------

TEST(ReplicaStoreSharingTest, FetchedTupleOutlivesRemoveAndTamper) {
  StressDb db(64);
  auto held = db.store.Get(RidFor(5));
  ASSERT_TRUE(held.ok());
  const Tuple before = **held;

  // A second fetch of an untouched rid is the same object: no copy.
  auto again = db.store.Get(RidFor(5));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(held->get(), again->get());

  // Copy-on-write tamper: later fetches see the corrupted row, the
  // holder keeps the row it fetched.
  ASSERT_TRUE(db.store.TamperByKey(5, 1, Value::Str("EVIL")).ok());
  EXPECT_EQ(**held, before);
  auto tampered = db.store.Get(RidFor(5));
  ASSERT_TRUE(tampered.ok());
  EXPECT_NE(tampered->get(), held->get());
  EXPECT_EQ((*tampered)->value(1).Compare(Value::Str("EVIL")), 0);

  // Removal drops the store's reference only.
  auto doomed = db.store.Get(RidFor(9));
  ASSERT_TRUE(doomed.ok());
  const Tuple doomed_before = **doomed;
  EXPECT_EQ(db.store.RemoveKeyRange(9, 9), 1u);
  EXPECT_FALSE(db.store.Get(RidFor(9)).ok());
  EXPECT_EQ(**doomed, doomed_before);
}

TEST(ReplicaStoreSharingTest, VOBuiltAfterTamperFailsVerification) {
  StressDb db(64);
  SelectQuery q = db.RangeQuery(0, 20);
  auto honest = db.tree->ExecuteSelect(q, db.store.Fetcher());
  ASSERT_TRUE(honest.ok());
  Verifier v = db.MakeVerifier();
  ASSERT_TRUE(v.VerifySelect(q, honest->rows, honest->vo).ok());

  ASSERT_TRUE(db.store.TamperByKey(7, 2, Value::Str("EVIL")).ok());
  auto after = db.tree->ExecuteSelect(q, db.store.Fetcher());
  ASSERT_TRUE(after.ok());
  Status s = v.VerifySelect(q, after->rows, after->vo);
  EXPECT_TRUE(s.IsVerificationFailure()) << s.ToString();
  // The answer built before the tamper copied its rows and still holds.
  EXPECT_TRUE(v.VerifySelect(q, honest->rows, honest->vo).ok());
}

TEST(ReplicaStoreSharingTest, HeldTuplesStayIntactUnderReplayAndTamper) {
  // Readers hold fetched tuples (directly, and inside batch executions'
  // memos) while a writer inserts, range-deletes and tampers the very
  // rows they hold. A holder must keep reading exactly the value it
  // fetched; an in-place mutation would also be a TSan data race.
  constexpr size_t kBase = 128;
  constexpr int64_t kChurn = 160;
  StressDb db(kBase);

  std::atomic<bool> done{false};
  std::atomic<bool> writer_ok{true};
  std::atomic<int64_t> laps{0};
  std::thread writer([&] {
    Rng rng(5150);
    for (int64_t seq = 0; seq < kChurn && writer_ok; ++seq) {
      // Pace the writer by the readers' progress so the two interleave.
      while (laps.load() < seq) std::this_thread::yield();
      if (!db.InsertChurn(seq, &rng).ok()) writer_ok = false;
      const int64_t victim = seq % static_cast<int64_t>(kBase);
      Value evil = Value::Str("T" + std::to_string(seq));
      if (!db.store.TamperByKey(victim, 1, std::move(evil)).ok()) {
        writer_ok = false;
      }
      if (seq % 16 == 15) {
        // Replay order for a delete: tree first, then the store.
        const int64_t lo = static_cast<int64_t>(kBase) + seq - 15;
        if (!db.tree->DeleteRange(lo, lo + 7).ok()) writer_ok = false;
        db.store.RemoveKeyRange(lo, lo + 7);
      }
    }
    done = true;
  });

  std::atomic<uint64_t> changed{0};
  std::atomic<uint64_t> failed_batches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::pair<std::shared_ptr<const Tuple>, Tuple>> held;
      const int64_t domain = static_cast<int64_t>(kBase) + kChurn;
      int64_t next = r * 37;
      while (!done.load(std::memory_order_acquire)) {
        for (int i = 0; i < 8; ++i) {
          auto t = db.store.Get(RidFor(next));
          next = (next + 1) % domain;
          if (t.ok()) held.emplace_back(*t, **t);
        }
        if (held.size() > 64) {
          for (const auto& [ref, copy] : held) {
            if (!(*ref == copy)) changed++;
          }
          held.erase(held.begin(), held.begin() + 32);
        }
        std::vector<SelectQuery> batch = {db.RangeQuery(0, 40),
                                          db.RangeQuery(20, domain)};
        auto outs = db.tree->ExecuteSelectBatch(batch, db.store.Fetcher());
        if (!outs.ok()) failed_batches++;
        laps++;
      }
      for (const auto& [ref, copy] : held) {
        if (!(*ref == copy)) changed++;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_ok.load());
  EXPECT_EQ(changed.load(), 0u) << "a held tuple changed under its reader";
  EXPECT_EQ(failed_batches.load(), 0u);
}

// ---------------------------------------------------------------------------
// Edge level: snapshot installs and delta replay race authenticated
// client queries against the EdgeServer.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, SnapshotInstallRacesVerifiedQueries) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  std::unique_ptr<CentralServer> central = central_or.MoveValueUnsafe();

  Schema schema = MakeWideSchema(6);
  ASSERT_TRUE(central->CreateTable("items", schema).ok());
  Rng rng(42);
  ASSERT_TRUE(
      central->LoadTable("items", testutil::MakeRows(schema, 400, &rng)).ok());

  EdgeServer edge("edge-1");
  ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());

  std::atomic<bool> done{false};
  std::thread churn([&] {
    Rng crng(9001);
    for (int i = 0; i < 30; ++i) {
      Tuple t = MakeTuple(schema, 400 + i, &crng);
      ASSERT_TRUE(central->InsertTuple("items", t).ok());
      // Alternate the two install paths racing the readers: full
      // snapshot swap (replica pointer replaced under the directory
      // lock) and in-place delta replay (latch-free against the live
      // tree).
      if (i % 2 == 0) {
        ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());
      } else {
        ASSERT_TRUE(testutil::PublishDelta(central.get(), "items", &edge).ok());
      }
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Client client(central->db_name(), central->key_directory());
      client.RegisterTable("items", schema);
      SelectQuery q;
      q.table = "items";
      q.range = KeyRange{0, 1000};
      uint64_t last_version = 0;
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto res = client.Query(&edge, q, /*now=*/10);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        ASSERT_TRUE(res->verification.ok()) << res->verification.ToString();
        // The replica only moves forward under the install churn, and
        // every answer reflects at least the 400 loaded rows.
        ASSERT_GE(res->replica_version, last_version);
        last_version = res->replica_version;
        ASSERT_GE(res->rows.size(), 400u);
        ASSERT_EQ(res->rows.size(), 400u + res->replica_version);
      }
    });
  }
  churn.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(edge.TableVersion("items"), 30u);
}

TEST(OLCStressTest, EdgeAnswersRaceReplayTamperAndCacheFlush) {
  // Encoded answers share VO-cache entries and replica tuples. Readers
  // encode and decode batches (half of them VO-cache hits) while delta
  // replay inserts and range-deletes, and the tamper hook swaps rows and
  // flushes the cache under them.
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  std::unique_ptr<CentralServer> central = central_or.MoveValueUnsafe();
  Schema schema = MakeWideSchema(6);
  ASSERT_TRUE(central->CreateTable("items", schema).ok());
  Rng rng(42);
  ASSERT_TRUE(
      central->LoadTable("items", testutil::MakeRows(schema, 300, &rng)).ok());
  EdgeServer edge("edge-1");
  ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());

  QueryBatch batch;
  batch.table = "items";
  for (int i = 0; i < 4; ++i) {
    SelectQuery q;
    q.range = KeyRange{i * 60, i * 60 + 90};
    if (i % 2 == 1) q.projection = {0, 2};
    q.NormalizeProjection();
    batch.queries.push_back(std::move(q));
  }
  ByteWriter req;
  SerializeQueryBatch(batch, &req);
  const std::vector<uint8_t> request = req.TakeBuffer();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (int rep = 0; rep < 2; ++rep) {  // a miss, then a cache hit
          auto bytes = edge.HandleQueryBatchBytes(Slice(request));
          if (!bytes.ok()) {
            bad++;
            continue;
          }
          ByteReader rd((Slice(*bytes)));
          auto resp = DeserializeQueryBatchResponse(&rd, schema, batch.queries);
          if (!resp.ok() || resp->responses.size() != batch.queries.size()) {
            bad++;
          }
        }
      }
    });
  }
  Rng crng(77);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        central->InsertTuple("items", MakeTuple(schema, 300 + i, &crng)).ok());
    if (i % 6 == 5) {
      ASSERT_TRUE(central->DeleteRange("items", 300 + i - 3, 300 + i).ok());
    }
    ASSERT_TRUE(testutil::PublishDelta(central.get(), "items", &edge).ok());
    ASSERT_TRUE(edge.TamperValueByKey("items", i * 11, 1,
                                      Value::Str("evil" + std::to_string(i)))
                    .ok());
  }
  done = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace vbtree
