// perfbench harness: runs one seeded workload against the public API of
// the library (central server -> propagation hub -> edge query service ->
// verifying client), checks every answer, and prints every metric by
// name and unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced run (plus an untraced run of the same
// length, whose read_qps gives the tracing overhead) and dumps the spans.
//
// Usage:
//   perfbench_harness --workload cold_scan --seed 1 --seconds 20 --trace 0
//       [--span-dump FILE] [--dump-inputs FILE]
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "costmodel/cost_model.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"
#include "edge/query_service/query_service.h"
#include "timed_transport.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using vbtree::CentralServer;
using vbtree::Client;
using vbtree::DistributionHub;
using vbtree::EdgeServer;
using vbtree::QueryService;
using vbtree::Status;
using vbtree::bench::PaperSchema;

constexpr int64_t kFlushPeriodNs = 5'000'000;  // the propagator's cadence
constexpr double kWarmupSeconds = 1.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr uint64_t kLogicalNow = 10;

/// Sleeps until the absolute time `due` (NowNs() clock) and returns the
/// time it woke. The generator does not spin, so its CPU time stays out of
/// cpu_us_per_query; its wake-up latency is recorded as lateness.
int64_t WaitUntil(int64_t due) {
  const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                    static_cast<long>(due % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
  return NowNs();
}

/// Open-loop writers stand for users outside the system, so the system's
/// own threads must not starve them off their schedule (on a 4-vCPU host
/// the hub's per-round ship threads otherwise delay them by tens of ms).
/// Tries SCHED_FIFO, then a raised nice value; returns what took effect.
const char* RaiseGeneratorPriority() {
  sched_param param{};
  param.sched_priority = 1;
  if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0) {
    return "fifo";
  }
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), -10) == 0) {
    return "nice";
  }
  return "normal";
}

/// Keeps every vCPU out of halt for the whole run. In a microVM whose
/// guest has no cpuidle support an idle vCPU exits to the host, and waking
/// it again goes through the host scheduler: under host load each thread
/// hand-off (client -> edge worker -> client, writer -> signer) then takes
/// milliseconds and the figures swing several-fold from run to run. One
/// spinning child process per CPU at SCHED_IDLE fills only otherwise-idle
/// time — any runnable thread of the harness preempts it at once — the
/// same effect as disabling deep idle states on bare metal. Separate
/// processes, so the harness's own CPU time and RSS exclude them.
class IdleSpinners {
 public:
  IdleSpinners() {
    const pid_t parent = getpid();
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      const pid_t pid = fork();
      if (pid == 0) Spin(parent);
      if (pid > 0) pids_.push_back(pid);
    }
  }
  ~IdleSpinners() {
    for (pid_t pid : pids_) kill(pid, SIGKILL);
    for (pid_t pid : pids_) waitpid(pid, nullptr, 0);
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  [[noreturn]] static void Spin(pid_t parent) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    sched_param param{};
    sched_setscheduler(0, SCHED_IDLE, &param);
    for (;;) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::vector<pid_t> pids_;
};

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::ceil(p * n));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<double> Values(const std::vector<std::pair<int64_t, double>>& s) {
  std::vector<double> v;
  v.reserve(s.size());
  for (const auto& e : s) v.push_back(e.second);
  return v;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Cumulative (steal, total) clock ticks over all CPUs from /proc/stat.
/// Steal is time the hypervisor ran something else while a vCPU of this
/// machine wanted to run; it slows every time-based figure, so each phase
/// prints its share. {0, 0} where the file is missing.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  uint64_t steal = 0, total = 0, v = 0;
  for (int field = 0; label == "cpu" && field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

// ---------------------------------------------------------------------------
// The system under test, built from generated inputs.

struct World {
  std::unique_ptr<CentralServer> central;
  vbtree::InProcessTransport inner;
  TimedTransport net{&inner};
  std::unique_ptr<EdgeServer> edge;
  std::unique_ptr<DistributionHub> hub;
  std::unique_ptr<QueryService> service;
  std::vector<std::string> shard_names;
  double setup_s = 0;
  double load_s = 0;
  double sync_all_s = 0;
};

vbtree::Result<std::unique_ptr<World>> BuildWorld(const WorkloadSpec& spec,
                                                  const Inputs& inputs,
                                                  uint64_t seed) {
  auto w = std::make_unique<World>();
  const int64_t t0 = NowNs();
  CentralServer::Options copts;
  copts.db_name = "edgedb";
  copts.use_rsa = spec.rsa;
  copts.key_seed = StreamSeed(seed, 3);
  VBT_ASSIGN_OR_RETURN(w->central, CentralServer::Create(copts));
  CentralServer& central = *w->central;
  VBT_RETURN_NOT_OK(spec.shards > 1
                        ? central.CreateTable("events", PaperSchema(),
                                              inputs.splits)
                              .status()
                        : central.CreateTable("events", PaperSchema())
                              .status());
  {
    ScopedSpan span("central.load_table", Tracer::Get().NextId());
    const int64_t start = NowNs();
    VBT_RETURN_NOT_OK(central.LoadTable("events", inputs.seed_rows));
    w->load_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  w->edge = std::make_unique<EdgeServer>("edge-0");
  vbtree::PropagationOptions popts;
  popts.auto_start = false;  // the harness's flusher thread drives rounds
  w->hub = std::make_unique<DistributionHub>(&central, &w->net, popts);
  VBT_RETURN_NOT_OK(w->hub->Subscribe(w->edge.get()));
  {
    Tracer& t = Tracer::Get();
    ScopedSpan span("hub.sync_all", t.NextId());
    t.round_span = span.id();
    t.round_group = CurrentContext().group;
    const int64_t start = NowNs();
    VBT_RETURN_NOT_OK(w->hub->SyncAll());
    w->sync_all_s = static_cast<double>(NowNs() - start) / 1e9;
  }
  vbtree::QueryServiceOptions qopts;
  qopts.num_workers = 2;
  w->service = std::make_unique<QueryService>(w->edge.get(), qopts);
  w->shard_names = central.ShardNames();
  if (w->shard_names.size() != spec.shards) {
    return Status::Internal("unexpected shard layout");
  }
  w->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return w;
}

// ---------------------------------------------------------------------------
// Correctness oracle.

/// True when `v` is verified and holds exactly the generated rows of the
/// range: every seed key in it, ascending, nothing else (inserts never
/// land in read ranges), with the projected width.
bool CheckAnswer(const vbtree::SelectQuery& q, const Client::Verified& v) {
  if (!v.verification.ok()) return false;
  const size_t width = q.projection.empty() ? kColumns : 3;
  if (v.rows.size() != static_cast<size_t>(q.range.hi - q.range.lo + 1)) {
    return false;
  }
  for (size_t i = 0; i < v.rows.size(); ++i) {
    const vbtree::ResultRow& row = v.rows[i];
    if (row.key != q.range.lo + static_cast<int64_t>(i)) return false;
    if (row.values.size() != width) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One measured phase: closed-loop readers, open-loop writers and the
// flusher, for a fixed wall time.

struct ReaderTally {
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;
  uint64_t verify_us = 0;
  uint64_t map_verify_us = 0;
  uint64_t recovers = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t rows_full = 0, queries_full = 0;
  uint64_t rows_proj = 0, queries_proj = 0;
  std::string first_error;
};

struct WriterTally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  size_t max_index = 0;
  std::vector<double> latency_us;                       // due -> return
  std::vector<std::pair<int64_t, double>> lateness_us;  // due -> send
  struct Ack {
    size_t shard;
    uint64_t version;
    int64_t ack_ns;
  };
  std::vector<Ack> acks;
  std::string first_error;
  const char* priority = "";
};

struct PhaseResult {
  double read_seconds = 0;
  double read_qps = 0;  ///< verified queries / read_seconds
  double cpu_seconds = 0;  ///< process CPU time over the phase
  double steal_share = 0;  ///< host steal ticks / all CPU ticks
  ReaderTally reads;  // merged
  WriterTally writes; // merged
  uint64_t inserts_due = 0;
  uint64_t backlog_end = 0;
  bool lateness_growing = false;
  uint64_t flush_rounds = 0;
  uint64_t flush_errors = 0;
  std::vector<double> fresh_lag_ms;
  uint64_t unresolved_lags = 0;
  TimedTransport::ClassTotals up, down, delta, snapshot, map;
  DistributionHub::HubStats hub;  // delta over the phase
  QueryService::Stats service;    // delta over the phase
  uint64_t sign_calls = 0;        // delta over the phase
  size_t signer_queue_depth_p99 = 0;

  uint64_t attempted() const {
    return reads.batches * kBatchQueries + writes.sent + flush_rounds;
  }
  uint64_t failed() const {
    return reads.failed + writes.errors + flush_errors + unresolved_lags;
  }
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Inputs& inputs, uint64_t seed,
         World* world)
      : spec_(spec), inputs_(inputs), world_(world) {
    for (size_t r = 0; r < kReaders; ++r) {
      auto client = std::make_unique<Client>(
          "edgedb", world->central->key_directory());
      if (spec.shards > 1) {
        client->RegisterShardedTable("events", PaperSchema());
      } else {
        client->RegisterTable("events", PaperSchema());
      }
      clients_.push_back(std::move(client));
      streams_.push_back(std::make_unique<BatchStream>(spec, seed, r));
    }
  }

  PhaseResult Run(double seconds, bool traced);

 private:
  void ReaderLoop(size_t r, int64_t end_ns, ReaderTally* tally);
  void WriterLoop(size_t w, size_t base, int64_t start_ns, int64_t end_ns,
                  WriterTally* tally);
  uint64_t SignCalls(size_t* queue_p99) const;
  size_t ShardOf(int64_t key) const {
    return static_cast<size_t>(
        std::upper_bound(inputs_.splits.begin(), inputs_.splits.end(), key) -
        inputs_.splits.begin());
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  World* world_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<BatchStream>> streams_;
  size_t next_insert_ = 0;
};

void Runner::ReaderLoop(size_t r, int64_t end_ns, ReaderTally* t) {
  Client& client = *clients_[r];
  BatchStream& stream = *streams_[r];
  Tracer& tracer = Tracer::Get();
  while (NowNs() < end_ns) {
    vbtree::QueryBatch batch = stream.Next();
    const int64_t start = NowNs();
    auto out = [&] {
      ScopedSpan span("client.query_batched", tracer.NextId());
      return client.QueryBatched(world_->service.get(), batch, kLogicalNow,
                                 /*verifier=*/nullptr, &world_->net);
    }();
    const int64_t end = NowNs();
    t->batches++;
    if (!out.ok() || out->results.size() != batch.queries.size()) {
      t->failed += batch.queries.size();
      if (t->first_error.empty()) {
        t->first_error = out.ok() ? "result count mismatch"
                                  : out.status().ToString();
      }
      continue;
    }
    t->latency_us.push_back(static_cast<double>(end - start) / 1e3);
    for (size_t i = 0; i < batch.queries.size(); ++i) {
      const vbtree::SelectQuery& q = batch.queries[i];
      const Client::Verified& v = out->results[i];
      if (!CheckAnswer(q, v)) {
        t->failed++;
        if (t->first_error.empty()) {
          t->first_error = "wrong answer for [" + std::to_string(q.range.lo) +
                           ", " + std::to_string(q.range.hi) +
                           "]: " + v.verification.ToString();
        }
        continue;
      }
      t->queries++;
      if (q.projection.empty()) {
        t->rows_full += v.rows.size();
        t->queries_full++;
      } else {
        t->rows_proj += v.rows.size();
        t->queries_proj++;
      }
    }
    t->verify_us += out->verify_us;
    t->map_verify_us += out->map_verify_us;
    t->recovers += out->crypto.recovers.load();
    t->cache_hits += out->crypto.digest_cache_hits.load();
    t->cache_misses += out->crypto.digest_cache_misses.load();
  }
}

void Runner::WriterLoop(size_t w, size_t base, int64_t start_ns,
                        int64_t end_ns, WriterTally* t) {
  const double period_ns = 1e9 / spec_.insert_rate;
  t->priority = RaiseGeneratorPriority();
  for (size_t k = w;; k += kWriters) {
    const size_t index = base + k;
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    if (due >= end_ns || index >= inputs_.inserts.size()) break;
    int64_t now = WaitUntil(due);
    if (now >= end_ns) break;  // left as end-of-run backlog
    const vbtree::Tuple& tuple = inputs_.inserts[index];
    Status s;
    {
      ScopedSpan span("central.insert_tuple", Tracer::Get().NextId());
      s = world_->central->InsertTuple("events", tuple);
    }
    const int64_t ret = NowNs();
    t->sent++;
    t->max_index = std::max(t->max_index, index);
    t->lateness_us.emplace_back(now, static_cast<double>(now - due) / 1e3);
    if (!s.ok()) {
      t->errors++;
      if (t->first_error.empty()) t->first_error = s.ToString();
      continue;
    }
    t->ok++;
    t->latency_us.push_back(static_cast<double>(ret - due) / 1e3);
    const size_t shard = ShardOf(tuple.key());
    auto version = world_->central->VersionOf(world_->shard_names[shard]);
    if (!version.ok()) {
      t->errors++;
      continue;
    }
    t->acks.push_back({shard, *version, ret});
  }
}

uint64_t Runner::SignCalls(size_t* queue_p99) const {
  uint64_t calls = 0;
  auto stats = world_->central->TableDomainStats("events");
  if (!stats.ok()) return 0;
  for (const auto& d : *stats) {
    calls += d.sign_calls;
    if (queue_p99 != nullptr) {
      *queue_p99 = std::max(*queue_p99, d.queue_depth_p99);
    }
  }
  return calls;
}

template <typename T>
void Append(std::vector<T>* dst, const std::vector<T>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

QueryService::Stats StatsDelta(const QueryService::Stats& a,
                               const QueryService::Stats& b) {
  QueryService::Stats d;
  d.batches = b.batches - a.batches;
  d.batched_queries = b.batched_queries - a.batched_queries;
  d.queue_wait_us_total = b.queue_wait_us_total - a.queue_wait_us_total;
  d.exec_us_total = b.exec_us_total - a.exec_us_total;
  d.vo_cache_hits = b.vo_cache_hits - a.vo_cache_hits;
  d.olc_restarts = b.olc_restarts - a.olc_restarts;
  d.latch_wait_us_total = b.latch_wait_us_total - a.latch_wait_us_total;
  d.vo_wire_bytes_total = b.vo_wire_bytes_total - a.vo_wire_bytes_total;
  return d;
}

DistributionHub::HubStats HubDelta(const DistributionHub::HubStats& a,
                                   const DistributionHub::HubStats& b) {
  DistributionHub::HubStats d;
  d.deltas_shipped = b.deltas_shipped - a.deltas_shipped;
  d.catch_up_snapshots = b.catch_up_snapshots - a.catch_up_snapshots;
  return d;
}

TimedTransport::ClassTotals Minus(TimedTransport::ClassTotals a,
                                  TimedTransport::ClassTotals b) {
  return {a.messages - b.messages, a.bytes - b.bytes};
}

PhaseResult Runner::Run(double seconds, bool traced) {
  PhaseResult res;
  World& w = *world_;
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(traced);

  const auto service_before = w.service->stats();
  const auto hub_before = w.hub->stats();
  const uint64_t signs_before = SignCalls(nullptr);
  const auto up0 = w.net.totals(ChannelClass::kRpcUp);
  const auto down0 = w.net.totals(ChannelClass::kRpcDown);
  const auto delta0 = w.net.totals(ChannelClass::kDelta);
  const auto snap0 = w.net.totals(ChannelClass::kSnapshot);
  const auto map0 = w.net.totals(ChannelClass::kMap);

  const double cpu_before = ProcessCpuSeconds();
  const auto ticks_before = CpuTicks();
  const int64_t start = NowNs() + 2'000'000;  // let threads start
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const size_t base = next_insert_;

  std::vector<ReaderTally> rt(clients_.size());
  std::vector<WriterTally> wt(kWriters);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < rt.size(); ++r) {
    threads.emplace_back([&, r] {
      std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
      ReaderLoop(r, end, &rt[r]);
    });
  }
  for (size_t i = 0; i < wt.size(); ++i) {
    threads.emplace_back([&, i] { WriterLoop(i, base, start, end, &wt[i]); });
  }

  // Flusher: FlushOnce every kFlushPeriodNs; each return stamps the edge's
  // per-shard versions (the freshness timeline). After the writers stop
  // it keeps flushing until the edge holds the central head (all lags
  // resolve) or a deadline passes.
  std::atomic<bool> writers_done{false};
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> timeline(
      w.shard_names.size());
  std::thread flusher([&] {
    int64_t next = start;
    const int64_t deadline = end + 10'000'000'000LL;
    while (true) {
      int64_t now = NowNs();
      if (now < next) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      }
      const bool draining = writers_done.load();
      Status s;
      {
        ScopedSpan span("hub.flush_once", tracer.NextId());
        tracer.round_span = span.id();
        tracer.round_group = CurrentContext().group;
        s = w.hub->FlushOnce();
      }
      const int64_t ret = NowNs();
      res.flush_rounds++;
      if (!s.ok()) res.flush_errors++;
      bool caught_up = true;
      for (size_t sh = 0; sh < w.shard_names.size(); ++sh) {
        const uint64_t v = w.edge->TableVersion(w.shard_names[sh]);
        timeline[sh].emplace_back(v, ret);
        auto head = w.central->VersionOf(w.shard_names[sh]);
        if (!head.ok() || v < *head) caught_up = false;
      }
      if ((draining && caught_up) || ret > deadline) break;
      next += kFlushPeriodNs;
      if (next < ret) next = ret;
    }
  });

  for (auto& t : threads) t.join();
  const int64_t joined = NowNs();
  res.cpu_seconds = ProcessCpuSeconds() - cpu_before;
  const auto ticks = CpuTicks();
  res.steal_share =
      Ratio(static_cast<double>(ticks.first - ticks_before.first),
            static_cast<double>(ticks.second - ticks_before.second));
  writers_done = true;
  flusher.join();
  tracer.set_enabled(false);

  res.read_seconds = static_cast<double>(joined - start) / 1e9;
  for (ReaderTally& t : rt) {
    ReaderTally& m = res.reads;
    m.batches += t.batches;
    m.queries += t.queries;
    m.failed += t.failed;
    Append(&m.latency_us, t.latency_us);
    m.verify_us += t.verify_us;
    m.map_verify_us += t.map_verify_us;
    m.recovers += t.recovers;
    m.cache_hits += t.cache_hits;
    m.cache_misses += t.cache_misses;
    m.rows_full += t.rows_full;
    m.queries_full += t.queries_full;
    m.rows_proj += t.rows_proj;
    m.queries_proj += t.queries_proj;
    if (m.first_error.empty()) m.first_error = t.first_error;
  }
  for (WriterTally& t : wt) {
    WriterTally& m = res.writes;
    m.sent += t.sent;
    m.ok += t.ok;
    m.errors += t.errors;
    m.max_index = std::max(m.max_index, t.max_index);
    Append(&m.latency_us, t.latency_us);
    Append(&m.lateness_us, t.lateness_us);
    Append(&m.acks, t.acks);
    if (m.first_error.empty()) m.first_error = t.first_error;
    m.priority = t.priority;
  }

  res.read_qps = Ratio(res.reads.queries, res.read_seconds);

  // Open-loop health: inserts due in the window but never sent, and
  // whether lateness kept growing (the last quarter far later than the
  // first) — either means the generator fell into a closed loop.
  res.inserts_due = static_cast<uint64_t>(
      std::ceil(seconds * spec_.insert_rate));
  res.backlog_end = res.inserts_due > res.writes.sent
                        ? res.inserts_due - res.writes.sent
                        : 0;
  auto lateness = res.writes.lateness_us;
  std::sort(lateness.begin(), lateness.end());
  const size_t q = lateness.size() / 4;
  if (q > 0) {
    std::vector<double> first, last;
    for (size_t i = 0; i < q; ++i) {
      first.push_back(lateness[i].second);
      last.push_back(lateness[lateness.size() - 1 - i].second);
    }
    const double f = Median(first), l = Median(last);
    res.lateness_growing = l > 100'000.0 && l > 2 * f;
  }
  next_insert_ = res.writes.sent > 0 ? res.writes.max_index + 1 : base;
  // Freshness: the first flush return whose edge version covers the
  // version the insert's ack observed.
  for (const WriterTally::Ack& a : res.writes.acks) {
    const auto& tl = timeline[a.shard];
    auto it = std::lower_bound(
        tl.begin(), tl.end(), a.version,
        [](const std::pair<uint64_t, int64_t>& e, uint64_t v) {
          return e.first < v;
        });
    if (it == tl.end()) {
      res.unresolved_lags++;
      continue;
    }
    const double lag_ms =
        static_cast<double>(std::max<int64_t>(0, it->second - a.ack_ns)) /
        1e6;
    res.fresh_lag_ms.push_back(lag_ms);
  }

  res.service = StatsDelta(service_before, w.service->stats());
  res.hub = HubDelta(hub_before, w.hub->stats());
  res.sign_calls = SignCalls(&res.signer_queue_depth_p99) - signs_before;
  res.up = Minus(w.net.totals(ChannelClass::kRpcUp), up0);
  res.down = Minus(w.net.totals(ChannelClass::kRpcDown), down0);
  res.delta = Minus(w.net.totals(ChannelClass::kDelta), delta0);
  res.snapshot = Minus(w.net.totals(ChannelClass::kSnapshot), snap0);
  res.map = Minus(w.net.totals(ChannelClass::kMap), map0);
  return res;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Paper Table 1 parameters for one shard of this workload, with the
/// block size chosen so formula (6) yields the tree's configured fan-out.
vbtree::costmodel::CostParams ModelParams(const WorkloadSpec& spec) {
  vbtree::costmodel::CostParams p;
  p.digest_len = spec.rsa ? 128 : 16;
  p.num_tuples = static_cast<double>(spec.rows / spec.shards);
  p.num_cols = static_cast<double>(kColumns);
  p.attr_len = static_cast<double>(kAttrLen);
  const double fan_out = vbtree::BTreeConfig{}.max_internal;
  p.block = fan_out * (p.key_len + p.ptr_len + p.digest_len) - p.key_len;
  return p;
}

/// Formula (9) minus its result-value term: D_P + D_S + D_N bytes.
double PredictedVOBytes(vbtree::costmodel::CostParams p, double rows,
                        double cols) {
  p.result_tuples = rows;
  p.result_cols = cols;
  return vbtree::costmodel::VBCommBytes(p) - rows * cols * p.attr_len;
}

/// Signatures per insert from formula (11): InsertCost with every cost
/// but Cost_sign zeroed, minus the hashing term.
double PredictedSignsPerInsert(vbtree::costmodel::CostParams p) {
  p.cost_k = 0;
  p.cost_sign = 1;
  const double with_signs = vbtree::costmodel::InsertCost(p);
  p.cost_sign = 0;
  return with_signs - vbtree::costmodel::InsertCost(p);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id\tparent\tgroup\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.group << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

void WriteInputs(const std::string& path, const WorkloadSpec& spec,
                 const Inputs& in, uint64_t seed) {
  std::ofstream out(path, std::ios::binary);
  out << "workload " << spec.name << "\nseed_rows " << in.seed_rows.size()
      << '\n';
  for (const auto& t : in.seed_rows) out << t.ToString() << '\n';
  out << "inserts " << in.inserts.size() << '\n';
  for (const auto& t : in.inserts) out << t.ToString() << '\n';
  for (size_t r = 0; r < kReaders; ++r) {
    BatchStream stream(spec, seed, r);
    out << "reader " << r << '\n';
    for (int b = 0; b < 64; ++b) {
      for (const auto& q : stream.Next().queries) {
        out << q.range.lo << ' ' << q.range.hi << ' ' << q.projection.size()
            << '\n';
      }
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_dump;
  std::string dump_inputs;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--span-dump") a->span_dump = v;
    else if (k == "--dump-inputs") a->dump_inputs = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--span-dump FILE] "
                 "[--dump-inputs FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const size_t insert_count =
      static_cast<size_t>(
          std::ceil(spec->insert_rate * (args.seconds + kWarmupSeconds))) +
      2 * kWriters + 16;

  const Inputs inputs = MakeInputs(*spec, args.seed, insert_count);
  if (!args.dump_inputs.empty()) {
    WriteInputs(args.dump_inputs, *spec, inputs, args.seed);
    return 0;
  }

  IdleSpinners spinners;

  // Set-up, several times; the last world is measured. Each earlier
  // world is torn down before the next is built.
  std::vector<double> setup_s, load_s, sync_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    Tracer::Get().set_enabled(args.trace && i + 1 == kSetups);
    auto built = BuildWorld(*spec, inputs, args.seed);
    Tracer::Get().set_enabled(false);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    world = built.MoveValueUnsafe();
    setup_s.push_back(world->setup_s);
    load_s.push_back(world->load_s);
    sync_s.push_back(world->sync_all_s);
  }

  Runner runner(*spec, inputs, args.seed, world.get());
  // phases[0] is the untimed warm-up, which counts only towards
  // correctness. The traced run splits the timed window into an untraced
  // and a traced half.
  std::vector<PhaseResult> phases;
  phases.reserve(3);
  phases.push_back(runner.Run(kWarmupSeconds, false));
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  if (args.trace) phases.push_back(runner.Run(window, false));
  phases.push_back(runner.Run(window, args.trace));

  uint64_t attempted = 0, failed = 0;
  bool open_loop_ok = true;
  std::string first_error;
  for (const PhaseResult& p : phases) {
    attempted += p.attempted();
    failed += p.failed();
    if (p.backlog_end > std::max<uint64_t>(8, p.inserts_due / 20) ||
        p.lateness_growing) {
      open_loop_ok = false;
    }
    if (first_error.empty()) first_error = p.reads.first_error;
    if (first_error.empty()) first_error = p.writes.first_error;
  }
  const PhaseResult& r = phases.back();
  const PhaseResult& untraced = phases[1];

  // Tail percentiles: the slowest 1% here is dominated by rare stalls
  // (the edge VO cache's clear-all, host hiccups), so they swing far more
  // run to run than any bound could absorb. They are printed on every
  // run and reported in the traced run, but not gated.
  const std::vector<Metric> tails = {
      {"read_batch_p99_us", Percentile(r.reads.latency_us, 0.99), "us"},
      {"insert_p99_us", Percentile(r.writes.latency_us, 0.99), "us"},
      {"fresh_lag_p99_ms", Percentile(r.fresh_lag_ms, 0.99), "ms"},
  };
  std::vector<Metric> m;
  if (!args.trace) {
    m.push_back({"read_qps", r.read_qps, "queries/s"});
    m.push_back({"read_batch_p50_us", Median(r.reads.latency_us), "us"});
    m.push_back({"wire_bytes_per_query",
                 Ratio(static_cast<double>(r.up.bytes + r.down.bytes),
                       r.reads.queries),
                 "B"});
    m.push_back({"insert_p50_us", Median(r.writes.latency_us), "us"});
    m.push_back({"fresh_lag_p50_ms", Median(r.fresh_lag_ms), "ms"});
    m.push_back({"delta_bytes_per_insert",
                 Ratio(static_cast<double>(r.delta.bytes + r.snapshot.bytes +
                                           r.map.bytes),
                       r.writes.ok),
                 "B"});
    m.push_back({"cpu_us_per_query",
                 Ratio(r.cpu_seconds * 1e6, r.reads.queries), "us"});
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
      std::vector<Span> spans = Tracer::Get().Collect();
    if (!args.span_dump.empty()) WriteSpans(args.span_dump, spans);
    std::unordered_map<uint64_t, double> child_us;
    for (const Span& s : spans) {
      if (s.parent != 0) {
        child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    double client_self = 0, rpc_total = 0;
    std::vector<double> rpc_us, insert_us, flush_us;
    double delta_apply_us = 0;
    for (const Span& s : spans) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      const std::string name = s.name;
      if (name == "client.query_batched") {
        client_self += us - child_us[s.id];
      } else if (name == "transport.deliver.rpc_up") {
        rpc_us.push_back(us);
        rpc_total += us;
      } else if (name == "central.insert_tuple") {
        insert_us.push_back(us);
      } else if (name == "hub.flush_once") {
        flush_us.push_back(us);
      } else if (name == "transport.deliver.delta") {
        delta_apply_us += us;
      }
    }
    const double q = static_cast<double>(r.reads.queries);
    double measured_batch_us = 0;
    for (double us : r.reads.latency_us) measured_batch_us += us;
    const auto params = ModelParams(*spec);
    const double vo_pred =
        Ratio(r.reads.queries_full *
                      PredictedVOBytes(params,
                                       Ratio(r.reads.rows_full,
                                             r.reads.queries_full),
                                       kColumns) +
                  r.reads.queries_proj *
                      PredictedVOBytes(params,
                                       Ratio(r.reads.rows_proj,
                                             r.reads.queries_proj),
                                       3),
              q);
    const double inserts_ok = static_cast<double>(r.writes.ok);
    m.push_back({"client.self_us_per_query", Ratio(client_self, q), "us"});
    m.push_back(
        {"client.verify_us_per_query", Ratio(r.reads.verify_us, q), "us"});
    m.push_back({"client.map_verify_us_per_query",
                 Ratio(r.reads.map_verify_us, q), "us"});
    m.push_back(
        {"crypto.recovers_per_query", Ratio(r.reads.recovers, q), "count"});
    m.push_back({"crypto.digest_cache_hit_ratio",
                 Ratio(r.reads.cache_hits,
                       r.reads.cache_hits + r.reads.cache_misses),
                 "ratio"});
    m.push_back({"crypto.sign_calls_per_insert",
                 Ratio(r.sign_calls, inserts_ok), "count"});
    m.push_back({"crypto.sign_calls_per_insert_predicted",
                 PredictedSignsPerInsert(params), "count"});
    m.push_back({"edge.rpc_us_p50", Percentile(rpc_us, 0.5), "us"});
    m.push_back({"edge.rpc_us_p99", Percentile(rpc_us, 0.99), "us"});
    const QueryService::Stats& svc = r.service;
    const double svc_batches = static_cast<double>(svc.batches);
    const double svc_queries = static_cast<double>(svc.batched_queries);
    m.push_back({"edge.queue_wait_us_per_batch",
                 Ratio(svc.queue_wait_us_total, svc_batches), "us"});
    m.push_back({"edge.exec_us_per_batch",
                 Ratio(svc.exec_us_total, svc_batches), "us"});
    m.push_back({"edge.vo_cache_hit_ratio",
                 Ratio(svc.vo_cache_hits, svc_queries), "ratio"});
    m.push_back({"edge.olc_restarts_per_query",
                 Ratio(svc.olc_restarts, svc_queries), "count"});
    m.push_back({"edge.latch_wait_us_per_batch",
                 Ratio(svc.latch_wait_us_total, svc_batches), "us"});
    m.push_back({"wire.request_bytes_per_query", Ratio(r.up.bytes, q), "B"});
    m.push_back({"wire.response_bytes_per_query", Ratio(r.down.bytes, q), "B"});
    m.push_back({"wire.vo_bytes_per_query",
                 Ratio(svc.vo_wire_bytes_total, svc_queries), "B"});
    m.push_back({"wire.vo_bytes_per_query_predicted", vo_pred, "B"});
    m.push_back({"central.insert_service_us_p50", Percentile(insert_us, 0.5),
                 "us"});
    m.push_back({"central.insert_service_us_p99", Percentile(insert_us, 0.99),
                 "us"});
    m.push_back({"central.signer_queue_depth_p99",
                 static_cast<double>(r.signer_queue_depth_p99), "count"});
    m.push_back({"central.load_s", Median(load_s), "s"});
    m.push_back({"propagation.flush_us_p50", Percentile(flush_us, 0.5), "us"});
    m.push_back({"propagation.flush_us_p99", Percentile(flush_us, 0.99), "us"});
    m.push_back({"propagation.apply_us_per_insert",
                 Ratio(delta_apply_us, inserts_ok), "us"});
    m.push_back({"propagation.inserts_per_delta",
                 Ratio(inserts_ok, r.hub.deltas_shipped), "count"});
    m.push_back({"propagation.catch_up_snapshots",
                 static_cast<double>(r.hub.catch_up_snapshots), "count"});
    m.push_back({"propagation.sync_all_s", Median(sync_s), "s"});
    m.push_back({"gen.lateness_us_p99",
                 Percentile(Values(r.writes.lateness_us), 0.99), "us"});
    m.push_back(
        {"gen.backlog_end", static_cast<double>(r.backlog_end), "count"});
    m.push_back({"trace.overhead_read_qps_ratio",
                 Ratio(r.read_qps, untraced.read_qps), "ratio"});
    m.push_back({"trace.batch_latency_coverage",
                 Ratio(client_self + rpc_total, measured_batch_us), "ratio"});
    m.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
    m.push_back({"client.read_batch_p99_us", tails[0].value, "us"});
    m.push_back({"central.insert_p99_us", tails[1].value, "us"});
    m.push_back({"propagation.fresh_lag_p99_ms", tails[2].value, "ms"});
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (!args.trace) {
    for (const Metric& t : tails) {
      std::printf("info metric %-39s %14s %s\n", t.name.c_str(),
                  Num(t.value).c_str(), t.unit.c_str());
    }
  }
  std::printf("info failed_frac %s attempted %llu failed %llu\n",
              Num(Ratio(failed, attempted)).c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::printf(
        "info phase %zu seconds %s read_qps %s cpu_us_per_query %s "
        "batch_p50_us %s inserts %llu backlog_end %llu generator %s "
        "host_steal %s\n",
        i, Num(p.read_seconds).c_str(), Num(p.read_qps).c_str(),
        Num(Ratio(p.cpu_seconds * 1e6, p.reads.queries)).c_str(),
        Num(Median(p.reads.latency_us)).c_str(),
        static_cast<unsigned long long>(p.writes.ok),
        static_cast<unsigned long long>(p.backlog_end),
        p.writes.priority, Num(p.steal_share).c_str());
  }
  std::printf("info setup_s");
  for (double s : setup_s) std::printf(" %s", Num(s).c_str());
  std::printf("\n");
  if (!first_error.empty()) {
    std::printf("info first_error %s\n", first_error.c_str());
  }
  if (!open_loop_ok) {
    std::fprintf(stderr,
                 "invalid run: the open-loop insert generator fell behind its "
                 "schedule (backlog %llu of %llu due)\n",
                 static_cast<unsigned long long>(r.backlog_end),
                 static_cast<unsigned long long>(r.inserts_due));
  }
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, m);
  world.reset();
  return correct && open_loop_ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
