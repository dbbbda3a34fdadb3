// The low-level SHA256_*, SHA1_* and MD5_* functions are deprecated in
// OpenSSL 3 in favour of EVP, but EVP pays a provider dispatch and a
// context (re)initialisation on every digest: about 2.5x the SHA-256
// compression of a 60-byte attribute preimage, the hottest Cost_h on the
// client verification path. The plain-struct states below are copied
// from a pre-initialised one per call: no fetch, no allocation, no
// per-call setup. The deprecation suppression stays in this file.
#define OPENSSL_SUPPRESS_DEPRECATED

#include "crypto/hash.h"

#include <openssl/md5.h>
#include <openssl/sha.h>

#include <cstring>

#include "common/logging.h"

namespace vbtree {

namespace {

/// Hashes `input` from a copy of the pre-initialised state `Ctx`, writing
/// the full digest to `out`.
template <typename Ctx, int (*Init)(Ctx*),
          int (*Update)(Ctx*, const void*, size_t),
          int (*Final)(unsigned char*, Ctx*)>
void HashWith(Slice input, unsigned char* out) {
  static const Ctx initial = [] {
    Ctx c;
    VBT_CHECK(Init(&c) == 1);
    return c;
  }();
  Ctx c = initial;
  VBT_CHECK(Update(&c, input.data(), input.size()) == 1 &&
            Final(out, &c) == 1);
}

}  // namespace

Digest HashToDigest(HashAlgorithm algo, Slice input) {
  unsigned char out[SHA256_DIGEST_LENGTH];
  switch (algo) {
    case HashAlgorithm::kSha1:
      HashWith<SHA_CTX, SHA1_Init, SHA1_Update, SHA1_Final>(input, out);
      break;
    case HashAlgorithm::kMd5:
      HashWith<MD5_CTX, MD5_Init, MD5_Update, MD5_Final>(input, out);
      break;
    case HashAlgorithm::kSha256:
    default:
      HashWith<SHA256_CTX, SHA256_Init, SHA256_Update, SHA256_Final>(input,
                                                                     out);
      break;
  }
  // Every algorithm yields at least kDigestLen (MD5's 16) bytes.
  Digest d;
  std::memcpy(d.bytes.data(), out, kDigestLen);
  return d;
}

std::array<uint8_t, 32> Sha256(Slice input) {
  std::array<uint8_t, 32> out{};
  HashWith<SHA256_CTX, SHA256_Init, SHA256_Update, SHA256_Final>(input,
                                                                 out.data());
  return out;
}

}  // namespace vbtree
