#ifndef VBTREE_CRYPTO_COUNTING_RECOVERER_H_
#define VBTREE_CRYPTO_COUNTING_RECOVERER_H_

#include "crypto/signer.h"

namespace vbtree {

/// Decorator that forwards to another Recoverer while ticking a separate
/// CryptoCounters sink. Lets each client account its own Cost_s
/// (signature-decrypt) operations even when the underlying public-key
/// object is shared via the KeyDirectory.
class CountingRecoverer : public Recoverer {
 public:
  CountingRecoverer(Recoverer* inner, CryptoCounters* counters)
      : inner_(inner), counters_(counters) {}

  Result<Digest> Recover(const Signature& sig) override {
    if (counters_ != nullptr) CryptoCounters::Tick(counters_->recovers);
    return inner_->Recover(sig);
  }

  size_t signature_length() const override {
    return inner_->signature_length();
  }

  bool recover_outcosts_cache_hit() const override {
    return inner_->recover_outcosts_cache_hit();
  }

 private:
  Recoverer* inner_;
  CryptoCounters* counters_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_COUNTING_RECOVERER_H_
