// serve-zipf-300k: online serving over a frozen store larger than the
// server's result cache.
//
// The store is built directly with FreezeClient (no training): 100 clients
// x 3000 nodes x 41 classes of fp32 row-stochastic rows (~47 MiB) plus a
// per-client GenerateSbmGraph adjacency of average degree ~10, against the
// default 8 MiB LRU cache. Traffic is Zipf(1.0) over the 300k nodes, every
// other query ego-graph smoothed, so both the cache-hit path and the cold
// path (row decode + smoothing over ~10 neighbours) do real work. Server
// defaults apply with 2 pool threads (the batcher plus one worker); with
// the generator thread that is 3 threads, leaving one core of the 4 free so
// the measurement is not at the mercy of every other task on the host.
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "serve/server.h"
#include "serve/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using adafgl::Result;
using adafgl::serve::Prediction;
using adafgl::serve::Query;
using adafgl::serve::Server;
using PredictionFuture = std::future<Result<Prediction>>;

constexpr int32_t kClients = 100;
constexpr int32_t kNodes = 3000;
constexpr int32_t kClasses = 41;
constexpr int64_t kEdgesPerClient = kNodes * 10 / 2;  // Average degree 10.
constexpr double kZipfS = 1.0;
constexpr size_t kQueryPool = size_t{1} << 20;
/// Closed-loop window of the bulk phase: well under the admission queue
/// (1024), so bulk load never sheds.
constexpr size_t kWindow = 256;
constexpr int64_t kWarmQueries = 300000;
constexpr int64_t kBatchQueries = 200000;
/// Every kCheckEvery-th query's response is checked against the store.
constexpr int64_t kCheckEvery = 61;
constexpr double kFixedRate = 20000.0;
constexpr double kSloP95Us = 1000.0;
constexpr double kSloProbeSeconds = 0.3;
constexpr size_t kSloBacklog = 512;
constexpr double kSmoothGamma = 0.5;
/// Set-up takes ~2 s; its median is taken over this many builds.
constexpr int kSetupRepeats = 3;

adafgl::serve::ServeOptions MakeServeOptions() {
  adafgl::serve::ServeOptions o;
  o.threads = 2;
  o.batch_size = 16;
  o.batch_deadline_us = 200;
  o.queue_capacity = 1024;
  o.cache_mb = 8;
  o.smooth_gamma = kSmoothGamma;
  o.slo_p99_ms = 0.0;
  o.drift_window = 256;
  o.drift_kl_alert = 0.5;
  o.start_paused = false;
  return o;
}

/// Row `v` of client `c`: positive entries normalised to sum 1, a pure
/// function of (seed, c, v) so the checker can recompute any row.
void FillRow(uint64_t seed, int32_t c, int32_t v, float* out) {
  const uint64_t cell =
      static_cast<uint64_t>(c) * kNodes + static_cast<uint64_t>(v);
  const uint64_t base = Mix64(seed) ^ (cell * kClasses);
  float sum = 0.0f;
  for (int32_t j = 0; j < kClasses; ++j) {
    out[j] = 0.05f + static_cast<float>(UnitFromBits(Mix64(base + j)));
    sum += out[j];
  }
  for (int32_t j = 0; j < kClasses; ++j) out[j] /= sum;
}

adafgl::Matrix ClientRows(uint64_t seed, int32_t c) {
  adafgl::Matrix m(kNodes, kClasses);
  for (int32_t v = 0; v < kNodes; ++v) FillRow(seed, c, v, m.row(v));
  return m;
}

adafgl::SbmParams ClientGraphParams() {
  adafgl::SbmParams p;
  p.num_nodes = kNodes;
  p.num_classes = kClasses;
  p.num_edges = kEdgesPerClient;
  p.edge_homophily = 0.3;
  p.feature_dim = 2;
  p.train_frac = 0.2;
  p.val_frac = 0.4;
  p.test_frac = 0.4;
  return p;
}

struct ServeSetup {
  std::unique_ptr<Server> server;
  /// The checker's copy of the adjacency the server was given.
  std::vector<adafgl::CsrMatrix> adjacency;
  double setup_s = 0.0;
  double generate_s = 0.0;
};

ServeSetup Setup(uint64_t seed, Report* report) {
  ServeSetup out;
  std::vector<double> total, generate;
  for (int r = 0; r < kSetupRepeats; ++r) {
    out.server.reset();
    out.adjacency.clear();
    adafgl::obs::Span span("bench.setup");
    const double t0 = NowSeconds();
    adafgl::serve::FrozenStore store;
    store.clients.reserve(kClients);
    std::vector<adafgl::CsrMatrix> adjacency;
    adjacency.reserve(kClients);
    for (int32_t c = 0; c < kClients; ++c) {
      store.clients.push_back(adafgl::serve::FreezeClient(
          ClientRows(seed, c), 0.5, adafgl::serve::Precision::kF32));
      adafgl::Rng rng(Mix64(seed ^ (0x5e7e0000ULL + c)));
      adjacency.push_back(
          adafgl::GenerateSbmGraph(ClientGraphParams(), rng).adj);
    }
    const double t1 = NowSeconds();
    // The checker's adjacency copy is benchmark bookkeeping, not set-up.
    out.adjacency = adjacency;
    const double t2 = NowSeconds();
    auto server = Server::Create(std::move(store), std::move(adjacency),
                                 MakeServeOptions());
    const double t3 = NowSeconds();
    if (!server.ok()) {
      report->Fail("Server::Create failed: " + server.status().ToString());
      return out;
    }
    out.server = std::move(server).value();
    total.push_back((t1 - t0) + (t3 - t2));
    generate.push_back(t1 - t0);
  }
  out.setup_s = Median(total);
  out.generate_s = Median(generate);
  return out;
}

/// Zipf(1.0) over all 300k (client, node) pairs through a seeded rank
/// permutation; odd positions ask for ego-graph smoothing.
std::vector<Query> MakeQueries(uint64_t seed) {
  const int64_t total = static_cast<int64_t>(kClients) * kNodes;
  std::vector<int64_t> perm(static_cast<size_t>(total));
  std::iota(perm.begin(), perm.end(), 0);
  SeqRng shuffle(seed ^ 0x9e37ULL);
  for (int64_t i = total - 1; i > 0; --i) {
    const auto j =
        static_cast<int64_t>(shuffle.Next() % static_cast<uint64_t>(i + 1));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  ZipfSampler zipf(total, kZipfS, seed ^ 0x21bfULL);
  std::vector<Query> queries(kQueryPool);
  for (size_t i = 0; i < kQueryPool; ++i) {
    const int64_t id = perm[static_cast<size_t>(zipf.Next())];
    queries[i] = Query{static_cast<int32_t>(id / kNodes),
                       static_cast<int32_t>(id % kNodes), (i % 2) == 1};
  }
  return queries;
}

class Traffic {
 public:
  Traffic(Server* server, const std::vector<adafgl::CsrMatrix>* adjacency,
          uint64_t seed, Report* report)
      : server_(server), adjacency_(adjacency), seed_(seed), report_(report),
        queries_(MakeQueries(seed)) {}

  /// Sends query `next_ + i`; phases consume the pool in sequence.
  PredictionFuture Submit(int64_t i) {
    return server_->Submit(At(i));
  }

  /// Returns the reported service latency, or -1 for a failed query
  /// (rejected, errored, or a wrong answer in the checked sample).
  int64_t Finish(int64_t i, Result<Prediction> r) {
    ++report_->attempted;
    if (!r.ok()) {
      ++report_->failed;
      return -1;
    }
    if ((next_ + i) % kCheckEvery == 0 && !Check(At(i), *r)) {
      ++report_->failed;
      report_->Fail("served prediction disagrees with the store");
      return -1;
    }
    return r->latency_ns;
  }

  /// Marks `count` queries consumed.
  void Advance(int64_t count) { next_ += count; }

  WindowResult Bulk(int64_t count, bool time_submit) {
    WindowResult w = RunWindow<PredictionFuture>(
        count, kWindow, time_submit,
        [this](int64_t i) { return Submit(i); },
        [this](int64_t i, Result<Prediction> r) {
          return Finish(i, std::move(r));
        });
    Advance(count);
    return w;
  }

  OpenLoopResult Open(double rate, double seconds, size_t backlog) {
    const auto count = static_cast<int64_t>(rate * seconds);
    const std::vector<double> due =
        PoissonSchedule(rate, count, seed_ ^ static_cast<uint64_t>(next_));
    OpenLoopResult o = RunOpenLoop<PredictionFuture>(
        due, backlog, [this](int64_t i) { return Submit(i); },
        [this](int64_t i, Result<Prediction> r) {
          return Finish(i, std::move(r));
        });
    Advance(o.sent);
    return o;
  }

 private:
  const Query& At(int64_t i) const {
    return queries_[static_cast<size_t>(next_ + i) % kQueryPool];
  }

  bool Check(const Query& q, const Prediction& p) const {
    if (p.probs.size() != static_cast<size_t>(kClasses)) return false;
    std::vector<float> row(kClasses);
    FillRow(seed_, q.client, q.node, row.data());
    bool ok = true;
    if (!q.smooth) {
      ok = std::memcmp(row.data(), p.probs.data(), sizeof(float) * kClasses) ==
           0;
    } else {
      std::vector<double> acc(kClasses, 0.0);
      std::vector<float> nb(kClasses);
      int64_t degree = 0;
      (*adjacency_)[static_cast<size_t>(q.client)].ForEachInRow(
          q.node, [&](int32_t u, float) {
            FillRow(seed_, q.client, u, nb.data());
            for (int32_t j = 0; j < kClasses; ++j) acc[j] += nb[j];
            ++degree;
          });
      for (int32_t j = 0; j < kClasses && ok; ++j) {
        const double want = degree == 0 ? row[j]
                                        : (1.0 - kSmoothGamma) * row[j] +
                                              kSmoothGamma * acc[j] / degree;
        ok = std::fabs(want - p.probs[j]) <= 1e-6;
      }
    }
    int32_t best = 0;
    for (int32_t j = 1; j < kClasses; ++j) {
      if (p.probs[j] > p.probs[best]) best = j;
    }
    return ok && p.label == best;
  }

  Server* server_;
  const std::vector<adafgl::CsrMatrix>* adjacency_;
  uint64_t seed_;
  Report* report_;
  std::vector<Query> queries_;
  int64_t next_ = 0;
};

/// Whether an open-loop probe at this rate meets the SLO: p95 from due
/// time within the limit, no failed query, no growing backlog.
bool MeetsSlo(const OpenLoopResult& o) {
  return !o.backlog_exceeded && o.failed == 0 &&
         Percentile(o.latency_us, 0.95) <= kSloP95Us;
}

}  // namespace

Report RunServeZipf(const RunOptions& opts) {
  Report report;
  ServeSetup setup = Setup(opts.seed, &report);
  if (!setup.server) return report;
  Server& server = *setup.server;
  Traffic traffic(&server, &setup.adjacency, opts.seed, &report);
  // Fill the cache before anything is timed.
  traffic.Bulk(kWarmQueries, false);

  if (!opts.trace) {
    std::vector<double> batch_s;
    const double start = NowSeconds();
    do {
      batch_s.push_back(traffic.Bulk(kBatchQueries, false).elapsed_s);
    } while (NowSeconds() - start < opts.seconds);
    report.Set("setup_s", setup.setup_s, "s");
    report.Set("peak_rss_mib", PeakRssMib(), "MiB");
    report.Set("work_s", Median(batch_s), "s");
    return report;
  }

  // Untraced phases first: bulk throughput, the fixed-rate open loop, and
  // the SLO search; then the same bulk load under the program's tracing.
  const adafgl::serve::ServeStats s0 = server.Stats();
  std::vector<double> batch_s;
  for (int i = 0; i < 5; ++i) {
    batch_s.push_back(traffic.Bulk(kBatchQueries, false).elapsed_s);
  }
  const adafgl::serve::ServeStats s1 = server.Stats();
  const double qps_bulk = kBatchQueries / Median(batch_s);
  report.Set("serve.qps_bulk", qps_bulk, "1/s");
  const auto hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
  const auto misses = static_cast<double>(s1.cache_misses - s0.cache_misses);
  report.Set("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
  report.Set("serve.batch_size_mean",
             static_cast<double>(s1.completed - s0.completed) /
                 static_cast<double>(s1.batches - s0.batches),
             "count");

  const OpenLoopResult fixed =
      traffic.Open(kFixedRate, std::max(2.0, opts.seconds / 4), kSloBacklog);
  if (fixed.backlog_exceeded || fixed.failed != 0) {
    report.Fail("fixed-rate open loop fell behind or failed queries");
  }
  report.Set("serve.p50_us", Percentile(fixed.latency_us, 0.50), "us");
  report.Set("serve.p95_us", Percentile(fixed.latency_us, 0.95), "us");
  report.Set("serve.p99_us", Percentile(fixed.latency_us, 0.99), "us");
  report.Set("serve.p999_us", Percentile(fixed.latency_us, 0.999), "us");
  const std::vector<double>& lag = fixed.send_lag_us;
  report.Set("serve.send_lag_us",
             std::accumulate(lag.begin(), lag.end(), 0.0) /
                 static_cast<double>(std::max<size_t>(1, lag.size())),
             "us");
  report.Set("serve.queue_high_water",
             static_cast<double>(fixed.max_outstanding), "count");

  // Bisection (in log rate) between the fixed rate, which must pass, and
  // 1.5x the closed-loop throughput, which an open loop cannot sustain.
  double lo = kFixedRate;
  double hi = 1.5 * qps_bulk;
  report.Set("serve.slo_search_lo", lo, "1/s");
  report.Set("serve.slo_search_hi", hi, "1/s");
  if (!MeetsSlo(traffic.Open(lo, kSloProbeSeconds, kSloBacklog))) {
    report.Set("serve.qps_slo", lo, "1/s");  // Pinned at the floor.
  } else if (MeetsSlo(traffic.Open(hi, kSloProbeSeconds, kSloBacklog))) {
    report.Set("serve.qps_slo", hi, "1/s");  // Pinned at the ceiling.
  } else {
    for (int step = 0; step < 7; ++step) {
      const double mid = std::sqrt(lo * hi);
      if (MeetsSlo(traffic.Open(mid, kSloProbeSeconds, kSloBacklog))) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    report.Set("serve.qps_slo", lo, "1/s");
  }

  EnableProgramTracing(opts.workdir + "/trace-serve-zipf-300k.json");
  double traced_s = 0.0, submit_s = 0.0;
  int64_t submitted = 0;
  for (int i = 0; i < 3; ++i) {
    const WindowResult w = traffic.Bulk(kBatchQueries, true);
    traced_s += w.elapsed_s;
    submit_s += w.submit_s;
    submitted += w.completed;
  }
  report.Set("serve.admit_us", submit_s / static_cast<double>(submitted) * 1e6,
             "us");
  report.Set("obs.trace_overhead_ratio",
             (traced_s / 3) / Median(batch_s), "ratio");
  report.Set("data.generate_s", setup.generate_s, "s");

  {
    const adafgl::serve::FrozenClient probe = adafgl::serve::FreezeClient(
        ClientRows(opts.seed, 0), 0.5, adafgl::serve::Precision::kF32);
    std::vector<int32_t> nodes(4096);
    SeqRng rng(opts.seed ^ 0x4eadULL);
    for (int32_t& v : nodes) v = static_cast<int32_t>(rng.Next() % kNodes);
    std::vector<float> row(kClasses);
    float sink = 0.0f;
    const double t = TimeProbe("bench.serve.read_row", 0.2, 5, [&] {
      for (int32_t v : nodes) {
        probe.ReadRow(v, row.data());
        sink += row[0];
      }
    });
    if (!(sink > 0.0f)) report.Fail("read_row probe read nothing");
    report.Set("serve.read_row_ns", t * 1e9 / static_cast<double>(nodes.size()),
               "ns");
  }
  return report;
}

}  // namespace perfbench
