#ifndef VBTREE_CRYPTO_SIM_SIGNER_H_
#define VBTREE_CRYPTO_SIM_SIGNER_H_

#include <array>
#include <cstdint>
#include <memory>

#include "crypto/signer.h"

namespace vbtree {

/// Simulated recoverable signature with 16-byte signatures.
///
/// Substitution note (documented in DESIGN.md): the paper's cost analysis
/// assumes signed digests of |s| = 16 bytes (Table 1), which no real
/// public-key scheme provides — RSA signatures are >= 128 bytes. To
/// reproduce the paper's byte counts and cost ratios exactly, SimSigner
/// "signs" by encrypting the 16-byte digest with AES-128 under a secret
/// key, and "recovers" by decrypting. Holders of a SimRecoverer share the
/// AES key, standing in for the public key; the forgery-resistance
/// argument is out of scope for the cost study (use RsaSigner for real
/// security).
///
/// The optional `work_factor` parameter inserts calibrated extra AES
/// rounds into Recover() so that Cost_s / Cost_h matches a chosen X when
/// measuring wall-clock time (Fig. 12 sweeps X in {5, 10, 100}).
class SimSigner : public Signer {
 public:
  /// @param key_seed deterministic seed for the AES key.
  /// @param counters optional Cost accounting sink.
  /// @param work_factor extra decrypt work multiplier (>= 1).
  explicit SimSigner(uint64_t key_seed, CryptoCounters* counters = nullptr,
                     int work_factor = 1);
  ~SimSigner() override;

  Result<Signature> Sign(const Digest& d) override;
  size_t signature_length() const override { return kDigestLen; }
  std::string name() const override { return "sim-aes128"; }

  /// Raw key material; handed to SimRecoverer (the "public key" of the
  /// simulation).
  std::array<uint8_t, 16> key_material() const { return key_; }

 private:
  std::array<uint8_t, 16> key_;
  CryptoCounters* counters_;
  int work_factor_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Public-key side of SimSigner.
class SimRecoverer : public Recoverer {
 public:
  explicit SimRecoverer(std::array<uint8_t, 16> key,
                        CryptoCounters* counters = nullptr,
                        int work_factor = 1);
  ~SimRecoverer() override;

  Result<Digest> Recover(const Signature& sig) override;
  size_t signature_length() const override { return kDigestLen; }
  /// One AES block (work_factor 1) is cheaper than any cache probe, which
  /// must hash the signature, lock a shard and compare bytes.
  bool recover_outcosts_cache_hit() const override {
    return work_factor_ > 1;
  }

  void set_counters(CryptoCounters* counters) { counters_ = counters; }

 private:
  std::array<uint8_t, 16> key_;
  CryptoCounters* counters_;
  int work_factor_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_SIM_SIGNER_H_
