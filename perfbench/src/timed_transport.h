// Transport decorator: the benchmark's one outside hook on the wire.
//
// Forwards every call to an inner transport (byte accounting and the
// delivery gate stay the inner's), and adds per channel class a message
// count, a byte count, and — when tracing is on — one span around each
// Deliver. Channel classes follow the library's channel names:
//   client->edge:<e>            rpc_up    (the span covers edge queue + exec)
//   edge:<e>->client            rpc_down
//   central->edge:<e>:delta     delta     (the span covers edge replay)
//   central->edge:<e>:map       map
//   central->edge:<e>           snapshot
// Propagation deliveries run on threads the hub spawns per round; their
// spans are parented to the round published in Tracer::round_span.
#ifndef PERFBENCH_TIMED_TRANSPORT_H_
#define PERFBENCH_TIMED_TRANSPORT_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>

#include "edge/propagation/transport.h"
#include "trace.h"

namespace perfbench {

enum class ChannelClass : uint8_t {
  kRpcUp = 0,
  kRpcDown,
  kDelta,
  kSnapshot,
  kMap,
  kOther,
  kCount
};

inline const char* DeliverSpanName(ChannelClass c) {
  switch (c) {
    case ChannelClass::kRpcUp: return "transport.deliver.rpc_up";
    case ChannelClass::kRpcDown: return "transport.deliver.rpc_down";
    case ChannelClass::kDelta: return "transport.deliver.delta";
    case ChannelClass::kSnapshot: return "transport.deliver.snapshot";
    case ChannelClass::kMap: return "transport.deliver.map";
    default: return "transport.deliver.other";
  }
}

inline ChannelClass ClassifyChannel(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.rfind("client->edge:", 0) == 0) return ChannelClass::kRpcUp;
  if (name.rfind("edge:", 0) == 0 && ends_with("->client")) {
    return ChannelClass::kRpcDown;
  }
  if (name.rfind("central->edge:", 0) == 0) {
    if (ends_with(":delta")) return ChannelClass::kDelta;
    if (ends_with(":map")) return ChannelClass::kMap;
    return ChannelClass::kSnapshot;
  }
  return ChannelClass::kOther;
}

class TimedTransport : public vbtree::Transport {
 public:
  struct ClassTotals {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  explicit TimedTransport(vbtree::Transport* inner)
      : inner_(inner), classes_(new std::atomic<uint8_t>[kMaxIds]) {
    for (size_t i = 0; i < kMaxIds; ++i) {
      classes_[i].store(static_cast<uint8_t>(ChannelClass::kOther));
    }
  }

  vbtree::channel_id_t Channel(const std::string& name) override {
    vbtree::channel_id_t id = inner_->Channel(name);
    if (id < kMaxIds) {
      classes_[id].store(static_cast<uint8_t>(ClassifyChannel(name)),
                         std::memory_order_release);
    }
    return id;
  }

  using Transport::Record;
  void Record(vbtree::channel_id_t channel, size_t bytes) override {
    inner_->Record(channel, bytes);
    Totals& t = totals_[static_cast<size_t>(ClassOf(channel))];
    t.messages.fetch_add(1, std::memory_order_relaxed);
    t.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  ChannelStats stats(vbtree::channel_id_t channel) const override {
    return inner_->stats(channel);
  }
  ChannelStats stats(const std::string& channel) const override {
    return inner_->stats(channel);
  }
  uint64_t total_bytes() const override { return inner_->total_bytes(); }
  void Reset() override { inner_->Reset(); }

  vbtree::Status Deliver(vbtree::channel_id_t channel, vbtree::Slice payload,
                         const DeliverFn& deliver) override {
    if (!Tracer::Get().enabled()) {
      return inner_->Deliver(channel, payload, deliver);
    }
    const ChannelClass c = ClassOf(channel);
    const bool propagation = c == ChannelClass::kDelta ||
                             c == ChannelClass::kSnapshot ||
                             c == ChannelClass::kMap;
    Tracer& t = Tracer::Get();
    ScopedSpan span(DeliverSpanName(c),
                    propagation ? t.round_group.load() : 0,
                    propagation ? t.round_span.load() : 0);
    return inner_->Deliver(channel, payload, deliver);
  }

  ClassTotals totals(ChannelClass c) const {
    const Totals& t = totals_[static_cast<size_t>(c)];
    return ClassTotals{t.messages.load(std::memory_order_relaxed),
                       t.bytes.load(std::memory_order_relaxed)};
  }

 private:
  static constexpr size_t kMaxIds = 4096;

  struct Totals {
    std::atomic<uint64_t> messages{0};
    std::atomic<uint64_t> bytes{0};
  };

  ChannelClass ClassOf(vbtree::channel_id_t channel) const {
    if (channel >= kMaxIds) return ChannelClass::kOther;
    return static_cast<ChannelClass>(
        classes_[channel].load(std::memory_order_acquire));
  }

  vbtree::Transport* inner_;
  std::unique_ptr<std::atomic<uint8_t>[]> classes_;
  std::array<Totals, static_cast<size_t>(ChannelClass::kCount)> totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_TRANSPORT_H_
