#ifndef VBTREE_QUERY_EXECUTOR_H_
#define VBTREE_QUERY_EXECUTOR_H_

#include <memory>

#include "query/predicate.h"
#include "storage/table_heap.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// Binds a VB-tree to its tuple store (the table-heap replica at an edge
/// server) and runs select-project queries against the pair.
class Executor {
 public:
  Executor(const VBTree* tree, const TableHeap* heap)
      : tree_(tree), heap_(heap), fetcher_(FetcherFor(heap)) {}

  Result<QueryOutput> Run(const SelectQuery& query, txn_id_t txn = 0) const {
    return tree_->ExecuteSelect(query, fetcher_, txn);
  }

  /// Batched execution against the same tree/heap pair.
  Result<std::vector<QueryOutput>> RunBatch(
      std::span<const SelectQuery> queries,
      VBBatchStats* stats = nullptr) const {
    return tree_->ExecuteSelectBatch(queries, fetcher_, stats);
  }

  /// Adapts a TableHeap into the VBTree's TupleFetcher interface: the
  /// tuple decoded from the page is wrapped once, without a copy.
  static VBTree::TupleFetcher FetcherFor(const TableHeap* heap) {
    return [heap](const Rid& rid) -> Result<std::shared_ptr<const Tuple>> {
      VBT_ASSIGN_OR_RETURN(Tuple t, heap->Get(rid));
      return std::make_shared<const Tuple>(std::move(t));
    };
  }

 private:
  const VBTree* tree_;
  const TableHeap* heap_;
  /// Bound once at construction: Run is on the per-query hot path and
  /// must not rebuild a std::function (heap-allocating) per call.
  VBTree::TupleFetcher fetcher_;
};

}  // namespace vbtree

#endif  // VBTREE_QUERY_EXECUTOR_H_
