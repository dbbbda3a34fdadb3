#ifndef VBTREE_CRYPTO_RSA_SIGNER_H_
#define VBTREE_CRYPTO_RSA_SIGNER_H_

#include <memory>
#include <vector>

#include "crypto/signer.h"

namespace vbtree {

class RsaRecoverer;

/// Real message-recovering RSA signatures via OpenSSL EVP
/// (RSA + PKCS#1 v1.5 "private encrypt"; the verifier uses
/// EVP_PKEY_verify_recover to extract the signed digest, which is exactly
/// the p(s(d)) = d operation of the paper).
class RsaSigner : public Signer {
 public:
  /// Generates a fresh key pair. 1024-bit keys keep tests fast; use 2048+
  /// in production.
  static Result<std::unique_ptr<RsaSigner>> Generate(
      int key_bits = 1024, CryptoCounters* counters = nullptr);

  ~RsaSigner() override;

  Result<Signature> Sign(const Digest& d) override;
  size_t signature_length() const override { return sig_len_; }
  std::string name() const override { return "rsa-pkcs1"; }

  /// DER-encoded public key, distributable to clients over an
  /// authenticated channel (paper §3.2 assumes a PKI).
  Result<std::vector<uint8_t>> ExportPublicKey() const;

  /// Builds the matching verifier directly (avoids DER round-trip).
  Result<std::unique_ptr<RsaRecoverer>> MakeRecoverer(
      CryptoCounters* counters = nullptr) const;

 private:
  struct Impl;
  RsaSigner(std::unique_ptr<Impl> impl, size_t sig_len,
            CryptoCounters* counters);

  std::unique_ptr<Impl> impl_;
  size_t sig_len_;
  CryptoCounters* counters_;
};

/// Public-key side of RsaSigner.
class RsaRecoverer : public Recoverer {
 public:
  /// Imports a DER-encoded public key produced by ExportPublicKey().
  static Result<std::unique_ptr<RsaRecoverer>> FromPublicKeyDer(
      const std::vector<uint8_t>& der, CryptoCounters* counters = nullptr);

  ~RsaRecoverer() override;

  Result<Digest> Recover(const Signature& sig) override;
  size_t signature_length() const override { return sig_len_; }
  /// A modular exponentiation: far dearer than a cache probe.
  bool recover_outcosts_cache_hit() const override { return true; }

 private:
  friend class RsaSigner;
  struct Impl;
  RsaRecoverer(std::unique_ptr<Impl> impl, size_t sig_len,
               CryptoCounters* counters);

  std::unique_ptr<Impl> impl_;
  size_t sig_len_;
  CryptoCounters* counters_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_RSA_SIGNER_H_
