#ifndef VBTREE_EDGE_REPLICA_STORE_H_
#define VBTREE_EDGE_REPLICA_STORE_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "catalog/tuple.h"
#include "common/result.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// The tuple replica held by an edge server for one table shard: Rid →
/// tuple, addressed by the Rids embedded in the distributed VB-tree's
/// leaf entries. Being *unsecured* (§3.1), it exposes tamper hooks that
/// tests and examples use to play the hacked-edge-server role.
///
/// Tuples are shared and immutable: each is built once (make_shared) and
/// Get hands out a reference to it — one atomic increment, no copy — so a
/// query copies an answered row exactly once, from the stored tuple into
/// its result. Nothing mutates a stored tuple in place: a Put or a
/// TamperByKey swaps in a new tuple and a remove drops the store's
/// reference, so a reader still holding the old tuple keeps an unchanged
/// value that lives until its last holder lets go.
///
/// Thread-safe and striped: with latch-free VB-tree reads, query workers
/// fetch tuples while delta replay (the install writer) concurrently
/// Puts/Removes. The Rid index is split over kStripes shared-mutexed
/// shards so reader traffic doesn't serialize on one lock; the ordered
/// key index (range deletes seek in O(log n + k) instead of scanning)
/// has its own mutex, touched only by writers and tamper hooks.
///
/// Consistency with the tree is by publication order, not by locking:
/// replay Puts a tuple *before* the tree publishes the leaf entry that
/// points at it, and removes tuples only *after* the tree's delete
/// committed — so a tree traversal that validates its read set never
/// dereferences a Rid this store lacks (a NotFound under an
/// *invalidated* read is treated as interference and retried, never
/// reported).
class ReplicaStore {
 public:
  Status Put(const Rid& rid, Tuple tuple) {
    int64_t key = tuple.key();
    auto shared = std::make_shared<const Tuple>(std::move(tuple));
    {
      Stripe& s = StripeFor(rid);
      std::unique_lock lock(s.mu);
      s.by_rid[Pack(rid)] = std::move(shared);
    }
    std::unique_lock lock(key_mu_);
    rid_by_key_[key] = rid;
    return Status::OK();
  }

  Result<std::shared_ptr<const Tuple>> Get(const Rid& rid) const {
    const Stripe& s = StripeFor(rid);
    std::shared_lock lock(s.mu);
    auto it = s.by_rid.find(Pack(rid));
    if (it == s.by_rid.end()) return Status::NotFound("no replica tuple at rid");
    return it->second;
  }

  size_t size() const {
    size_t n = 0;
    for (const Stripe& s : stripes_) {
      std::shared_lock lock(s.mu);
      n += s.by_rid.size();
    }
    return n;
  }

  /// Tampers with a stored attribute value — the "hacker modified the data
  /// at the edge" scenario the VO must expose. Copy-on-write: the row is
  /// replaced by a corrupted copy, so a reader holding the old tuple
  /// never sees it change.
  Status TamperByKey(int64_t key, size_t col, Value v) {
    Rid rid;
    {
      std::shared_lock lock(key_mu_);
      auto it = rid_by_key_.find(key);
      if (it == rid_by_key_.end()) {
        return Status::NotFound("no tuple with key");
      }
      rid = it->second;
    }
    Stripe& s = StripeFor(rid);
    std::unique_lock lock(s.mu);
    auto it = s.by_rid.find(Pack(rid));
    if (it == s.by_rid.end()) return Status::NotFound("no tuple with key");
    if (col >= it->second->num_values()) {
      return Status::InvalidArgument("column out of range");
    }
    Tuple tampered = *it->second;
    tampered.set_value(col, std::move(v));
    it->second = std::make_shared<const Tuple>(std::move(tampered));
    return Status::OK();
  }

  /// Removes all tuples with keys in [lo, hi] (delta-replay of a range
  /// delete); returns how many were removed. O(log n + k): the ordered
  /// key index seeks to lo and walks only the doomed run.
  size_t RemoveKeyRange(int64_t lo, int64_t hi) {
    size_t removed = 0;
    std::unique_lock lock(key_mu_);
    auto it = rid_by_key_.lower_bound(lo);
    while (it != rid_by_key_.end() && it->first <= hi) {
      Stripe& s = StripeFor(it->second);
      {
        std::unique_lock stripe_lock(s.mu);
        s.by_rid.erase(Pack(it->second));
      }
      it = rid_by_key_.erase(it);
      removed++;
    }
    return removed;
  }

  /// Adapter for VBTree::ExecuteSelect.
  VBTree::TupleFetcher Fetcher() const {
    return [this](const Rid& rid) { return Get(rid); };
  }

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<const Tuple>> by_rid;
  };

  static uint64_t Pack(const Rid& rid) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(rid.page_id)) << 16) |
           rid.slot;
  }

  Stripe& StripeFor(const Rid& rid) const {
    // Fibonacci-hash the packed rid so sequentially allocated rids spread
    // across stripes; >> 60 yields exactly [0, 16).
    return stripes_[(Pack(rid) * 0x9E3779B97F4A7C15ull) >> 60];
  }

  mutable std::array<Stripe, kStripes> stripes_;
  /// Ordered: RemoveKeyRange seeks instead of scanning. Writer + tamper
  /// traffic only — the query hot path never touches it.
  mutable std::shared_mutex key_mu_;
  std::map<int64_t, Rid> rid_by_key_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_REPLICA_STORE_H_
