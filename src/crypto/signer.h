#ifndef VBTREE_CRYPTO_SIGNER_H_
#define VBTREE_CRYPTO_SIGNER_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "crypto/counters.h"
#include "crypto/digest.h"

namespace vbtree {

/// A signed digest: s(d) in the paper's notation, held by value.
///
/// Signatures are the most-copied object in the system: every leaf entry
/// stores 1 + |attributes| of them, a copy-on-write leaf clone copies them
/// all, and a VO is a set of them. This is a small-buffer byte string:
/// up to kInlineCapacity bytes (the 16-byte SimSigner signature) live in
/// the object itself, so copying, storing or decoding one never
/// allocates; a longer one (RSA-1024's 128 bytes) goes on the heap. It
/// offers the subset of std::vector<uint8_t> the code uses, with the same
/// lexicographic ordering.
class Signature {
 public:
  /// Bytes stored without allocating; a signature that has never needed
  /// more stays inline.
  static constexpr size_t kInlineCapacity = 23;

  using value_type = uint8_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  Signature() noexcept : rep_{} {}
  explicit Signature(size_t n, uint8_t fill = 0) : rep_{} { resize(n, fill); }
  template <std::forward_iterator It>
  Signature(It first, It last) : rep_{} {
    assign(first, last);
  }
  Signature(std::initializer_list<uint8_t> bytes) : rep_{} {
    assign(bytes.begin(), bytes.end());
  }

  Signature(const Signature& other) : rep_{} {
    if (other.is_heap()) {
      assign(other.begin(), other.end());
    } else {
      rep_ = other.rep_;
    }
  }
  Signature(Signature&& other) noexcept : rep_(other.rep_) {
    other.rep_ = Rep{};
  }
  /// Reuses this signature's buffer when it is large enough, so a
  /// refilled slot (e.g. in the recovered-digest cache) does not
  /// reallocate.
  Signature& operator=(const Signature& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  Signature& operator=(Signature&& other) noexcept {
    if (this != &other) {
      Release();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }
  ~Signature() { Release(); }

  size_t size() const { return is_heap() ? rep_.large.size : rep_.small.tag; }
  bool empty() const { return size() == 0; }
  size_t capacity() const {
    return is_heap() ? rep_.large.capacity : kInlineCapacity;
  }

  uint8_t* data() { return is_heap() ? rep_.large.data : rep_.small.bytes; }
  const uint8_t* data() const {
    return is_heap() ? rep_.large.data : rep_.small.bytes;
  }
  iterator begin() { return data(); }
  iterator end() { return data() + size(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }
  uint8_t& operator[](size_t i) { return data()[i]; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  void resize(size_t n, uint8_t fill = 0) {
    const size_t len = size();
    uint8_t* buf = Grow(n);
    if (n > len) std::memset(buf + len, fill, n - len);
    SetSize(n);
  }

  void push_back(uint8_t b) {
    const size_t len = size();
    Grow(len < capacity() ? len + 1 : 2 * len)[len] = b;
    SetSize(len + 1);
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_t>(std::distance(first, last));
    clear();
    std::copy(first, last, Grow(n));
    SetSize(n);
  }

  /// Keeps the buffer, like std::vector::clear.
  void clear() { SetSize(0); }

  // NOLINTNEXTLINE(google-explicit-constructor): cheap view conversion.
  operator Slice() const { return Slice(data(), size()); }

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size()) == 0;
  }
  /// Lexicographic over unsigned bytes, a proper prefix first: the
  /// ordering of std::vector<uint8_t>.
  friend std::strong_ordering operator<=>(const Signature& a,
                                          const Signature& b) {
    const int c =
        std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
    return c != 0 ? c <=> 0 : a.size() <=> b.size();
  }

 private:
  static constexpr uint8_t kHeapTag = 0xFF;

  // Both forms begin with the tag byte (a common initial sequence, so it
  // may be read whichever form is active): the inline length, or kHeapTag.
  struct Small {
    uint8_t tag;
    uint8_t bytes[kInlineCapacity];
  };
  struct Large {
    uint8_t tag;
    uint32_t size;
    uint32_t capacity;
    uint8_t* data;
  };
  union Rep {
    Small small;
    Large large;
  };
  static_assert(kInlineCapacity < kHeapTag);

  bool is_heap() const { return rep_.small.tag == kHeapTag; }

  void SetSize(size_t n) {
    if (is_heap()) {
      rep_.large.size = static_cast<uint32_t>(n);
    } else {
      rep_.small.tag = static_cast<uint8_t>(n);
    }
  }

  /// Grows the buffer to hold at least `n` bytes, keeping the contents;
  /// returns the buffer to write into.
  uint8_t* Grow(size_t n) {
    if (n <= capacity()) return data();
    if (n > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("Signature too long");
    }
    auto* buf = new uint8_t[n];
    const size_t len = size();
    std::memcpy(buf, data(), len);
    Release();
    rep_.large = Large{kHeapTag, static_cast<uint32_t>(len),
                       static_cast<uint32_t>(n), buf};
    return buf;
  }

  void Release() {
    if (is_heap()) delete[] rep_.large.data;
  }

  Rep rep_;
};

// No struct that holds a signature (leaf entries, VO items, cache slots)
// grows over the std::vector it replaces.
static_assert(sizeof(Signature) <= 24);
static_assert(std::is_nothrow_move_constructible_v<Signature> &&
              std::is_nothrow_move_assignable_v<Signature>);

/// Message-*recovering* signature scheme, the primitive the paper assumes:
/// s() encrypts a digest with the private key, p() decrypts it with the
/// public key and returns the original digest (§3.2, formulas (1)–(3)).
///
/// Two implementations:
///  * `SimSigner` — 16-byte signatures matching the paper's |s| = 16
///    parameter (see sim_signer.h for the substitution rationale);
///  * `RsaSigner` — real RSA with OpenSSL's verify-recover operation.
class Signer {
 public:
  virtual ~Signer() = default;

  /// s(d): signs with the private key. Only the central DBMS holds a
  /// Signer that can sign.
  virtual Result<Signature> Sign(const Digest& d) = 0;

  /// Size in bytes of one signature; drives communication-cost accounting.
  virtual size_t signature_length() const = 0;

  virtual std::string name() const = 0;
};

/// The public-key side: p(s) recovers the digest from a signature. Edge
/// servers and clients hold only a Recoverer, never a Signer.
class Recoverer {
 public:
  virtual ~Recoverer() = default;

  /// p(sig): recovers the embedded digest. Fails with
  /// kVerificationFailure if the signature is malformed or was not
  /// produced by the matching private key (detectable for RsaSigner via
  /// padding; SimSigner decrypts unconditionally and relies on the digest
  /// equation check downstream, exactly like the paper's 16-byte model).
  virtual Result<Digest> Recover(const Signature& sig) = 0;

  virtual size_t signature_length() const = 0;

  /// Whether one Recover costs more than one RecoveredDigestCache hit, so
  /// that memoizing recoveries across batches can save work. Fixed per
  /// recoverer type; the BatchVerifier skips the cache when it is false
  /// (DESIGN.md §6.2).
  virtual bool recover_outcosts_cache_hit() const = 0;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_SIGNER_H_
