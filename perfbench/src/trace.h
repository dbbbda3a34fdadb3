// In-memory span recorder for the benchmark harness.
//
// Spans are recorded only around calls the harness makes into the
// library's public API (and, through TimedTransport, around every
// Transport::Deliver), so the library itself is untouched. Each span has
// a name, start/end in steady-clock nanoseconds, the id of the span that
// caused it, and a group id shared by every span of one read batch, one
// insert, or one propagation round.
//
// Recording is off by default; ScopedSpan is then a single relaxed load.
// When on, each thread appends to its own buffer (registered once under a
// mutex), so the hot path takes no lock. Buffers live until the process
// exits; Collect() must only run once every recording thread has been
// joined.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: root
  uint64_t group = 0;   ///< batch / insert / flush-round id
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Append(const Span& span) { LocalBuffer()->push_back(span); }

  /// Moves every recorded span out (all recording threads joined).
  std::vector<Span> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (auto& buf : buffers_) {
      out.insert(out.end(), buf->begin(), buf->end());
      buf->clear();
    }
    return out;
  }

  // Cross-thread parentage: the propagation hub runs its ship jobs on
  // threads it spawns per round, so their Deliver spans cannot inherit a
  // thread-local parent. The thread driving FlushOnce/SyncAll publishes
  // the enclosing span and round here (only one flush runs at a time).
  std::atomic<uint64_t> round_span{0};
  std::atomic<uint64_t> round_group{0};

 private:
  Tracer() = default;

  std::vector<Span>* LocalBuffer() {
    thread_local std::vector<Span>* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<std::vector<Span>>();
      owned->reserve(1024);
      buf = owned.get();
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(owned));
    }
    return buf;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Thread-local causal context: the innermost open span and its group.
struct TraceContext {
  uint64_t span = 0;
  uint64_t group = 0;
};
inline TraceContext& CurrentContext() {
  thread_local TraceContext ctx;
  return ctx;
}

/// Records one span for its scope when tracing is on. `group` 0 inherits
/// the enclosing span's group; a root span passes its own group id.
/// `parent_override`, when non-zero, names a parent on another thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t group = 0,
                      uint64_t parent_override = 0) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    active_ = true;
    TraceContext& ctx = CurrentContext();
    saved_ = ctx;
    span_.name = name;
    span_.id = t.NextId();
    span_.parent = parent_override != 0 ? parent_override : ctx.span;
    span_.group = group != 0 ? group : ctx.group;
    ctx.span = span_.id;
    ctx.group = span_.group;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    CurrentContext() = saved_;
    Tracer::Get().Append(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
  TraceContext saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
