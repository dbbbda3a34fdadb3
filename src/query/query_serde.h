#ifndef VBTREE_QUERY_QUERY_SERDE_H_
#define VBTREE_QUERY_QUERY_SERDE_H_

#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/serde.h"
#include "query/predicate.h"

namespace vbtree {

/// Wire encoding of queries and result rows. Byte counts from these
/// routines are the "communication cost" the benchmark harness reports
/// (paper §4.2).
///
/// A query is encoded with an empty table slot: the canonical "query
/// bytes minus table" form shared by batch framing (the batch names the
/// table once) and the edge VO-cache fingerprint (the cache is per
/// table). The decoder reads whatever the slot holds.
void SerializeSelectQuerySansTable(const SelectQuery& q, ByteWriter* w);
Result<SelectQuery> DeserializeSelectQuery(ByteReader* r);

/// Batched request: the table name once, then each query without its
/// (redundant) table field.
void SerializeQueryBatch(const QueryBatch& batch, ByteWriter* w);
Result<QueryBatch> DeserializeQueryBatch(ByteReader* r);

/// Rows are encoded against the schema + projection so the receiver knows
/// each value's type. `projection` empty means all columns.
void SerializeResultRows(const std::vector<ResultRow>& rows, ByteWriter* w);
Result<std::vector<ResultRow>> DeserializeResultRows(
    ByteReader* r, const Schema& schema, const std::vector<size_t>& projection);

/// Per-query Status on the wire (batch response v2 carries one per failed
/// slot): u8 code + message. Deserialization rejects unknown codes with
/// kCorruption, so a malicious edge cannot smuggle an out-of-enum value.
/// (Returns the parse outcome; the decoded status lands in `*out` —
/// `Result<Status>` would be ambiguous with the error constructor.)
void SerializeStatus(const Status& s, ByteWriter* w);
Status DeserializeStatus(ByteReader* r, Status* out);

}  // namespace vbtree

#endif  // VBTREE_QUERY_QUERY_SERDE_H_
