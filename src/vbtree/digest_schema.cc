#include "vbtree/digest_schema.h"

#include <cstring>

#include "common/serde.h"

namespace vbtree {

std::vector<std::string> DigestSchema::AttributePrefixes(
    const std::string& db, const std::string& table, const Schema& schema) {
  // Length-prefixed fields make the preimage unambiguous (no separator
  // collisions between e.g. table and attribute names).
  std::vector<std::string> prefixes;
  prefixes.reserve(schema.num_columns());
  ByteWriter w(64);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    w.Clear();
    w.PutString(db);
    w.PutString(table);
    w.PutString(schema.column(c).name);
    prefixes.emplace_back(w.buffer().begin(), w.buffer().end());
  }
  return prefixes;
}

Digest DigestSchema::HashAttribute(int64_t key, size_t col_idx,
                                   const Value& v) const {
  // Preimage: column prefix | key | value. This runs once per returned
  // attribute on the client verification hot path, so it is assembled on
  // the stack; only an attribute too long for the buffer allocates.
  const std::string& prefix = prefixes_[col_idx];
  const size_t len = prefix.size() + sizeof(uint64_t) + v.SerializedSize();
  uint8_t stack[256];
  std::vector<uint8_t> heap;
  uint8_t* buf = stack;
  if (len > sizeof(stack)) {
    heap.resize(len);
    buf = heap.data();
  }
  std::memcpy(buf, prefix.data(), prefix.size());
  uint8_t* end = EncodeU64(static_cast<uint64_t>(key), buf + prefix.size());
  v.SerializeTo(end);
  return HashToDigest(algo_, Slice(buf, len));
}

std::vector<Digest> DigestSchema::AttributeDigests(const Tuple& t) const {
  std::vector<Digest> out;
  out.reserve(t.num_values());
  int64_t key = t.key();
  for (size_t c = 0; c < t.num_values(); ++c) {
    out.push_back(AttributeDigest(key, c, t.value(c)));
  }
  return out;
}

Digest DigestSchema::TupleDigest(const Tuple& t) const {
  std::vector<Digest> attrs = AttributeDigests(t);
  return ghash_.Combine(attrs);
}

Digest ShardBindingDigest(HashAlgorithm algo, const std::string& db_name,
                          const std::string& verify_name, int64_t lo,
                          int64_t hi, const Digest& root_digest) {
  // Length-prefixed fields, same anti-collision discipline as
  // AttributeDigest. Deliberately NOT versioned: an old root digest under
  // a valid binding is mere staleness, which replica-version watermarks
  // already police; putting the tree version in the preimage would force
  // a re-sign on version bumps that leave the root digest unchanged
  // (no-op deletes).
  ByteWriter w(64);
  w.PutString(db_name);
  w.PutString(verify_name);
  w.PutI64(lo);
  w.PutI64(hi);
  w.PutBytes(root_digest.AsSlice());
  return HashToDigest(algo, Slice(w.buffer()));
}

}  // namespace vbtree
