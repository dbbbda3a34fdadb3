#include "vbtree/verification_object.h"

#include <algorithm>
#include <bit>

#include "crypto/recovered_digest_cache.h"

namespace vbtree {

namespace {

size_t CountDigests(const VONode& n) {
  size_t count = n.filtered_tuple_sigs.size();
  for (const VONode::Item& item : n.items) {
    if (item.is_covered()) {
      count += CountDigests(*item.covered);
    } else {
      count += 1;
    }
  }
  return count;
}

/// Writes one signature either inline (pool == nullptr, self-contained)
/// or as a varint index into the batch pool (v2).
void WriteSig(const Signature& s, ByteWriter* w, SignaturePool* pool) {
  if (pool == nullptr) {
    w->PutLengthPrefixed(Slice(s.data(), s.size()));
  } else {
    w->PutVarint(pool->Intern(s));
  }
}

/// Reads one signature; when pooled, `*ref` additionally receives the
/// pool index the signature was materialized from (kNoPoolRef inline).
Result<Signature> ReadSig(ByteReader* r, const SignaturePool* pool,
                          uint32_t* ref) {
  if (ref != nullptr) *ref = kNoPoolRef;
  if (pool == nullptr) {
    VBT_ASSIGN_OR_RETURN(Slice s, r->ReadLengthPrefixed());
    return Signature(s.data(), s.data() + s.size());
  }
  VBT_ASSIGN_OR_RETURN(uint64_t idx, r->ReadVarint());
  const Signature* entry = pool->Get(idx);
  if (entry == nullptr) {
    return Status::Corruption("signature pool index " + std::to_string(idx) +
                              " out of range (pool has " +
                              std::to_string(pool->size()) + " entries)");
  }
  if (ref != nullptr) *ref = static_cast<uint32_t>(idx);
  return *entry;
}

/// Bytes WriteSig(s, w, nullptr) appends: the varint length prefix plus
/// the signature.
size_t InlineSigSize(const Signature& s) {
  return ByteWriter::VarintLength(s.size()) + s.size();
}

/// Bytes SerializeNode(n, w, nullptr) appends, by the same rules.
size_t NodeSize(const VONode& n) {
  size_t size = 1;  // is_leaf
  if (n.is_leaf) {
    size += ByteWriter::VarintLength(n.result_count) +
            ByteWriter::VarintLength(n.filtered_tuple_sigs.size());
    for (const Signature& s : n.filtered_tuple_sigs) size += InlineSigSize(s);
  } else {
    size += ByteWriter::VarintLength(n.items.size());
    for (const VONode::Item& item : n.items) {
      size += 1 + (item.is_covered() ? NodeSize(*item.covered)
                                     : InlineSigSize(item.opaque));
    }
  }
  return size;
}

void SerializeNode(const VONode& n, ByteWriter* w, SignaturePool* pool) {
  w->PutU8(n.is_leaf ? 1 : 0);
  if (n.is_leaf) {
    w->PutVarint(n.result_count);
    w->PutVarint(n.filtered_tuple_sigs.size());
    for (const Signature& s : n.filtered_tuple_sigs) {
      WriteSig(s, w, pool);
    }
  } else {
    w->PutVarint(n.items.size());
    for (const VONode::Item& item : n.items) {
      if (item.is_covered()) {
        w->PutU8(1);
        SerializeNode(*item.covered, w, pool);
      } else {
        w->PutU8(0);
        WriteSig(item.opaque, w, pool);
      }
    }
  }
}

Result<std::unique_ptr<VONode>> DeserializeNode(ByteReader* r, int depth,
                                                const SignaturePool* pool) {
  if (depth > 64) return Status::Corruption("VO skeleton too deep");
  auto n = std::make_unique<VONode>();
  VBT_ASSIGN_OR_RETURN(uint8_t is_leaf, r->ReadU8());
  n->is_leaf = is_leaf != 0;
  if (n->is_leaf) {
    VBT_ASSIGN_OR_RETURN(uint64_t rc, r->ReadVarint());
    n->result_count = static_cast<uint32_t>(rc);
    VBT_ASSIGN_OR_RETURN(uint64_t nf, r->ReadCount());
    n->filtered_tuple_sigs.reserve(nf);
    if (pool != nullptr) n->filtered_tuple_refs.reserve(nf);
    for (uint64_t i = 0; i < nf; ++i) {
      uint32_t ref = kNoPoolRef;
      VBT_ASSIGN_OR_RETURN(Signature s, ReadSig(r, pool, &ref));
      n->filtered_tuple_sigs.push_back(std::move(s));
      if (pool != nullptr) n->filtered_tuple_refs.push_back(ref);
    }
  } else {
    VBT_ASSIGN_OR_RETURN(uint64_t ni, r->ReadCount());
    n->items.reserve(ni);
    for (uint64_t i = 0; i < ni; ++i) {
      VBT_ASSIGN_OR_RETURN(uint8_t covered, r->ReadU8());
      VONode::Item item;
      if (covered != 0) {
        VBT_ASSIGN_OR_RETURN(item.covered, DeserializeNode(r, depth + 1, pool));
      } else {
        VBT_ASSIGN_OR_RETURN(item.opaque, ReadSig(r, pool, &item.opaque_ref));
      }
      n->items.push_back(std::move(item));
    }
  }
  return n;
}

std::unique_ptr<VONode> CloneNode(const VONode& n) {
  auto out = std::make_unique<VONode>();
  out->is_leaf = n.is_leaf;
  out->result_count = n.result_count;
  out->filtered_tuple_sigs = n.filtered_tuple_sigs;
  out->filtered_tuple_refs = n.filtered_tuple_refs;
  out->items.reserve(n.items.size());
  for (const VONode::Item& item : n.items) {
    VONode::Item copy;
    if (item.is_covered()) {
      copy.covered = CloneNode(*item.covered);
    } else {
      copy.opaque = item.opaque;
      copy.opaque_ref = item.opaque_ref;
    }
    out->items.push_back(std::move(copy));
  }
  return out;
}

void SerializeImpl(const VerificationObject& vo, ByteWriter* w,
                   SignaturePool* pool) {
  w->PutU32(vo.key_version);
  WriteSig(vo.signed_top, w, pool);
  w->PutU8(vo.skeleton != nullptr ? 1 : 0);
  if (vo.skeleton != nullptr) SerializeNode(*vo.skeleton, w, pool);
  w->PutVarint(vo.num_filtered_cols);
  w->PutVarint(vo.projected_attr_sigs.size());
  for (const Signature& s : vo.projected_attr_sigs) {
    WriteSig(s, w, pool);
  }
}

Result<VerificationObject> DeserializeImpl(ByteReader* r,
                                           const SignaturePool* pool) {
  VerificationObject vo;
  VBT_ASSIGN_OR_RETURN(vo.key_version, r->ReadU32());
  VBT_ASSIGN_OR_RETURN(vo.signed_top, ReadSig(r, pool, &vo.signed_top_ref));
  VBT_ASSIGN_OR_RETURN(uint8_t has_skeleton, r->ReadU8());
  if (has_skeleton != 0) {
    VBT_ASSIGN_OR_RETURN(vo.skeleton, DeserializeNode(r, 0, pool));
  }
  VBT_ASSIGN_OR_RETURN(uint64_t nfc, r->ReadVarint());
  vo.num_filtered_cols = static_cast<uint32_t>(nfc);
  VBT_ASSIGN_OR_RETURN(uint64_t np, r->ReadCount());
  vo.projected_attr_sigs.reserve(np);
  if (pool != nullptr) vo.projected_attr_refs.reserve(np);
  for (uint64_t i = 0; i < np; ++i) {
    uint32_t ref = kNoPoolRef;
    VBT_ASSIGN_OR_RETURN(Signature s, ReadSig(r, pool, &ref));
    vo.projected_attr_sigs.push_back(std::move(s));
    if (pool != nullptr) vo.projected_attr_refs.push_back(ref);
  }
  return vo;
}

}  // namespace

uint32_t SignaturePool::Intern(const Signature& sig) {
  // Grow before probing so the probe below always ends at an empty slot.
  // A deserialized pool has entries but no index; the first Intern
  // indexes them all.
  if (2 * (entries_.size() + 1) > index_.size()) {
    Rehash(std::bit_ceil(std::max<size_t>(4 * (entries_.size() + 1), 64)));
  }
  const uint64_t fp = SignatureHash{}(sig);
  const uint64_t tag = fp & kTagMask;
  const size_t mask = index_.size() - 1;
  for (size_t i = fp & mask;; i = (i + 1) & mask) {
    const uint64_t slot = index_[i];
    if (slot == 0) {
      const auto idx = static_cast<uint32_t>(entries_.size());
      index_[i] = tag | (uint64_t{idx} + 1);
      entries_.push_back(sig);
      entry_bytes_ += sig.size();
      return idx;
    }
    // The tag only skips; a hit needs the full bytes.
    const auto idx = static_cast<uint32_t>((slot & ~kTagMask) - 1);
    if ((slot & kTagMask) == tag && entries_[idx] == sig) return idx;
  }
}

void SignaturePool::Rehash(size_t slots) {
  index_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t idx = 0; idx < entries_.size(); ++idx) {
    const uint64_t fp = SignatureHash{}(entries_[idx]);
    size_t i = fp & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = (fp & kTagMask) | (uint64_t{idx} + 1);
  }
}

void SignaturePool::Serialize(ByteWriter* w) const {
  w->PutVarint(entries_.size());
  for (const Signature& s : entries_) {
    w->PutLengthPrefixed(Slice(s.data(), s.size()));
  }
}

Result<SignaturePool> SignaturePool::Deserialize(ByteReader* r) {
  SignaturePool pool;
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  pool.entries_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    VBT_ASSIGN_OR_RETURN(Slice s, r->ReadLengthPrefixed());
    pool.entries_.emplace_back(s.data(), s.data() + s.size());
    pool.entry_bytes_ += s.size();
  }
  return pool;
}

size_t VerificationObject::DigestCount() const {
  size_t count = 1 + projected_attr_sigs.size();  // signed_top + D_P
  if (skeleton != nullptr) count += CountDigests(*skeleton);
  return count;
}

void VerificationObject::Serialize(ByteWriter* w) const {
  SerializeImpl(*this, w, nullptr);
}

Result<VerificationObject> VerificationObject::Deserialize(ByteReader* r) {
  return DeserializeImpl(r, nullptr);
}

void VerificationObject::SerializePooled(ByteWriter* w,
                                         SignaturePool* pool) const {
  SerializeImpl(*this, w, pool);
}

Result<VerificationObject> VerificationObject::DeserializePooled(
    ByteReader* r, const SignaturePool& pool) {
  return DeserializeImpl(r, &pool);
}

size_t VerificationObject::SerializedSize() const {
  // Mirrors SerializeImpl without a pool, field for field.
  size_t size = 4 + InlineSigSize(signed_top) + 1;
  if (skeleton != nullptr) size += NodeSize(*skeleton);
  size += ByteWriter::VarintLength(num_filtered_cols) +
          ByteWriter::VarintLength(projected_attr_sigs.size());
  for (const Signature& s : projected_attr_sigs) size += InlineSigSize(s);
  return size;
}

VerificationObject VerificationObject::Clone() const {
  VerificationObject out;
  out.key_version = key_version;
  out.signed_top = signed_top;
  out.signed_top_ref = signed_top_ref;
  if (skeleton != nullptr) out.skeleton = CloneNode(*skeleton);
  out.num_filtered_cols = num_filtered_cols;
  out.projected_attr_sigs = projected_attr_sigs;
  out.projected_attr_refs = projected_attr_refs;
  return out;
}

}  // namespace vbtree
