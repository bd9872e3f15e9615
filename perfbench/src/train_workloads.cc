// Training workloads.
//
// adafgl-hetero3: AdaFGL on the heterophilous Chameleon stand-in, split
//   structure Non-iid into 3 clients (~760 nodes each), 15 rounds over a
//   100 Mbit/s + 20 ms synchronous link. Step 2's dense n x n personalized
//   propagation dominates the run; the comm layer moves only 90 frames.
// fedavg-100c: FedGCN on Cora split into 100 clients, 30 rounds, 2 client
//   threads, async sharded KV parameter server (4 shards, staleness 1) over
//   a heterogeneous link whose deadline buffers the slowest quarter of
//   pushes one round late, durable WAL + checkpoint every round. Exercises
//   the round machinery; Step 2 is absent.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/wire.h"
#include "core/adafgl.h"
#include "core/label_propagation.h"
#include "core/propagation_matrix.h"
#include "data/registry.h"
#include "durable/atomic_io.h"
#include "durable/wal.h"
#include "fed/federation.h"
#include "fed/splits.h"
#include "graph/graph.h"
#include "obs/mem.h"
#include "obs/registry.h"
#include "tensor/matrix_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using adafgl::FedConfig;
using adafgl::FederatedDataset;
using adafgl::Matrix;

struct TrainSpec {
  const char* name;
  const char* dataset;
  int32_t clients;
  bool adafgl;
  /// Lowest acceptable client-size-weighted test accuracy, well below what
  /// any seed reaches (a broken model lands near chance: 0.2 on Chameleon,
  /// 0.14 on Cora).
  double acc_floor;
};

constexpr TrainSpec kHetero3{"adafgl-hetero3", "Chameleon", 3, true, 0.35};
constexpr TrainSpec kFedAvg100{"fedavg-100c", "Cora", 100, false, 0.45};

FedConfig MakeConfig(const TrainSpec& spec, uint64_t seed) {
  FedConfig cfg;
  cfg.model = "GCN";
  cfg.local_epochs = 3;
  cfg.lr = 0.01f;
  cfg.weight_decay = 5e-4f;
  cfg.dropout = 0.5f;
  cfg.hidden = 64;
  cfg.participation = 1.0;
  cfg.inductive = false;
  cfg.post_local_epochs = 10;
  cfg.seed = seed;
  cfg.comm.codec = "lossless";
  cfg.comm.topk_ratio = 0.1;
  cfg.comm.link.latency_s = 0.02;
  cfg.comm.link.bandwidth_bps = 100e6 / 8.0;
  cfg.comm.link.drop_prob = 0.0;
  cfg.comm.link.dropout_prob = 0.0;
  cfg.comm.link.corrupt_prob = 0.0;
  cfg.comm.link.crash_prob = 0.0;
  cfg.comm.link.max_retries = 2;
  cfg.comm.link.backoff_base_s = 0.0;
  cfg.comm.link.policy = adafgl::comm::FaultPolicy::kRetry;
  cfg.resilience = adafgl::ResilienceOptions{};
  if (spec.adafgl) {
    cfg.rounds = 15;
    cfg.eval_every = 5;
    cfg.comm.num_threads = 1;
    cfg.comm.link.heterogeneity = 0.0;
    cfg.comm.link.round_deadline_s = 0.0;
    cfg.comm.kv.async = false;
    cfg.comm.kv.shards = 4;
    cfg.comm.kv.staleness = 0;
  } else {
    cfg.rounds = 30;
    cfg.eval_every = 5;
    cfg.comm.num_threads = 2;
    // Client link time is proportional to a per-client slowdown drawn from
    // [1, 2]; a pull + push at slowdown 1 takes ~45.3 ms, so the 80 ms
    // deadline makes clients slower than ~1.77x (about a quarter) push one
    // round late, and none is two rounds late (which the staleness bound
    // of 1 would reject).
    cfg.comm.link.heterogeneity = 1.0;
    cfg.comm.link.round_deadline_s = 0.08;
    cfg.comm.kv.async = true;
    cfg.comm.kv.shards = 4;
    cfg.comm.kv.staleness = 1;
  }
  return cfg;
}

adafgl::AdaFglOptions MakeAdaFglOptions() {
  adafgl::AdaFglOptions o;
  o.alpha = 0.5f;
  o.beta = 0.7f;
  o.adaptive_coefficients = true;
  o.hcs_repeats = 5;
  o.smoothing_steps = 2;
  o.message_layers = 2;
  o.personalized_epochs = 30;
  o.personalized_lr = 0.01f;
  o.hcs_mask_prob = 0.5;
  o.export_predictions = false;
  return o;
}

struct SetupResult {
  FederatedDataset data;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double split_s = 0.0;
};

/// Set-up takes tens of milliseconds; repeating it steadies its median.
constexpr int kSetupRepeats = 15;

/// The dataset stands in for a fixed public graph, so it is generated and
/// split from a fixed seed: the amount of work (client sizes, and with them
/// Step 2's n x n cost) is then the same for every run. The run seed drives
/// everything random in training — initial weights, dropout, sampling, HCS
/// masks, per-client link slowdowns.
constexpr uint64_t kDataSeed = 42;

SetupResult Setup(const TrainSpec& spec) {
  std::vector<double> total, generate, split;
  SetupResult out;
  for (int r = 0; r < kSetupRepeats; ++r) {
    adafgl::obs::Span span("bench.setup");
    adafgl::Rng rng(kDataSeed);
    const double t0 = NowSeconds();
    adafgl::Graph g = adafgl::GenerateDatasetByName(spec.dataset, rng);
    const double t1 = NowSeconds();
    out.data = adafgl::StructureNonIidSplit(
        g, spec.clients, adafgl::InjectionMode::kRandom, 0.5, rng);
    const double t2 = NowSeconds();
    total.push_back(t2 - t0);
    generate.push_back(t1 - t0);
    split.push_back(t2 - t1);
  }
  out.setup_s = Median(total);
  out.generate_s = Median(generate);
  out.split_s = Median(split);
  return out;
}

int64_t CounterValue(const char* name) {
  return adafgl::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// Process-wide parameter-server counters (recorded unconditionally).
struct PsCounters {
  int64_t push = 0, pull = 0, buffered = 0, applied = 0, rejected = 0;
  double push_ns = 0.0, pull_ns = 0.0;
  int64_t push_n = 0, pull_n = 0;

  static PsCounters Read() {
    auto& reg = adafgl::obs::MetricsRegistry::Global();
    PsCounters c;
    c.push = CounterValue("fed.ps.push");
    c.pull = CounterValue("fed.ps.pull");
    c.buffered = CounterValue("fed.ps.buffered");
    c.applied = CounterValue("fed.ps.stale_applied");
    c.rejected = CounterValue("fed.ps.stale_rejected");
    c.push_ns = reg.GetHistogram("fed.ps.push_ns")->sum();
    c.push_n = reg.GetHistogram("fed.ps.push_ns")->count();
    c.pull_ns = reg.GetHistogram("fed.ps.pull_ns")->sum();
    c.pull_n = reg.GetHistogram("fed.ps.pull_ns")->count();
    return c;
  }
  PsCounters Minus(const PsCounters& o) const {
    PsCounters d;
    d.push = push - o.push;
    d.pull = pull - o.pull;
    d.buffered = buffered - o.buffered;
    d.applied = applied - o.applied;
    d.rejected = rejected - o.rejected;
    d.push_ns = push_ns - o.push_ns;
    d.push_n = push_n - o.push_n;
    d.pull_ns = pull_ns - o.pull_ns;
    d.pull_n = pull_n - o.pull_n;
    return d;
  }
};

/// Lossless codec payload of a weight list: count u32, then per matrix
/// rows i64, cols i64 and the fp32 body.
int64_t LosslessPayloadBytes(const std::vector<Matrix>& weights) {
  int64_t bytes = 4;
  for (const Matrix& w : weights) bytes += 16 + 4 * w.size();
  return bytes;
}

/// One timed training job and everything checked or derived from it.
struct JobOutcome {
  double wall_s = 0.0;
  double final_acc = 0.0;
  adafgl::comm::CommStats comm;
  PsCounters ps;
  std::vector<Matrix> weights;  ///< Final global model (shapes for probes).
  int64_t attempted = 0;        ///< Client rounds.
  int64_t applied = 0;          ///< Client updates aggregated.
  int64_t failed = 0;
  int64_t wal_bytes = 0;   ///< Durable WAL size at the end of the job.
  int64_t ckpt_bytes = 0;  ///< Size of one durable checkpoint.
};

JobOutcome RunJob(const TrainSpec& spec, const FederatedDataset& data,
                  const FedConfig& cfg, const RunOptions& opts, int rep,
                  Report* report) {
  JobOutcome out;
  fs::path durable_dir;
  if (!spec.adafgl) {
    durable_dir = fs::path(opts.workdir) /
                  ("durable-" + std::to_string(::getpid()) + "-" +
                   std::to_string(rep));
    fs::remove_all(durable_dir);
    fs::create_directories(durable_dir);
    setenv("ADAFGL_DURABLE_DIR", durable_dir.c_str(), 1);
    setenv("ADAFGL_CKPT_INTERVAL", "1", 1);
  }
  const PsCounters before = PsCounters::Read();
  const double t0 = NowSeconds();
  if (spec.adafgl) {
    adafgl::AdaFglResult r =
        adafgl::RunAdaFgl(data, cfg, MakeAdaFglOptions());
    out.wall_s = NowSeconds() - t0;
    out.final_acc = r.final_test_acc;
    out.comm = r.comm.stats;
    out.weights = std::move(r.step1.global_weights);
  } else {
    adafgl::FedRunResult r = adafgl::RunFedAvg(data, cfg);
    out.wall_s = NowSeconds() - t0;
    out.final_acc = r.final_test_acc;
    out.comm = r.comm.stats;
    out.weights = std::move(r.global_weights);
  }
  out.ps = PsCounters::Read().Minus(before);

  const int64_t clients = data.num_clients();
  out.attempted = static_cast<int64_t>(cfg.rounds) * clients;
  // Wire accounting: every message must be exactly the analytic frame size
  // of the model it carries; no faults are injected, so none may be lost.
  const adafgl::comm::CommStats& s = out.comm;
  const int64_t wire = s.bytes_up + s.bytes_down;
  int64_t expected = 0;
  if (spec.adafgl) {
    const int64_t payload = LosslessPayloadBytes(out.weights);
    const int64_t frame = adafgl::obs::TraceEnabled()
                              ? adafgl::comm::WireSizeV2(payload)
                              : adafgl::comm::WireSize(payload);
    if (s.messages_up != out.attempted || s.messages_down != out.attempted) {
      report->Fail("sync message count differs from rounds x clients");
    }
    expected = (s.messages_up + s.messages_down) * frame;
    out.applied = out.attempted - s.dropouts - s.crashes;
    out.failed = s.dropouts + s.crashes;
  } else {
    const int shards = cfg.comm.kv.shards;
    int64_t per_model = 0;
    for (int sh = 0; sh < shards; ++sh) {
      std::vector<Matrix> part;
      for (size_t k = static_cast<size_t>(sh); k < out.weights.size();
           k += static_cast<size_t>(shards)) {
        part.push_back(out.weights[k]);
      }
      if (part.empty()) continue;
      per_model += adafgl::comm::WireSizeV3(
          LosslessPayloadBytes(part), static_cast<int64_t>(part.size()));
    }
    if (out.ps.pull != out.attempted) {
      report->Fail("async pulls differ from rounds x clients");
    }
    expected = (out.ps.pull + out.ps.push) * per_model;
    // On-time pushes plus admitted stale ones reach the aggregator; pushes
    // still buffered when the run ends are neither applied nor failed.
    out.applied = (out.ps.push - out.ps.buffered) + out.ps.applied;
    out.failed = out.ps.rejected + (out.attempted - out.ps.push) +
                 s.deadline_cuts + s.crashes;
  }
  if (wire != expected) {
    report->Fail("wire bytes " + std::to_string(wire) +
                 " != analytic frame accounting " + std::to_string(expected));
  }
  if (!std::isfinite(out.final_acc) || out.final_acc < spec.acc_floor) {
    report->Fail("final_acc " + std::to_string(out.final_acc) +
                 " below floor " + std::to_string(spec.acc_floor));
  }
  if (!durable_dir.empty()) {
    unsetenv("ADAFGL_DURABLE_DIR");
    unsetenv("ADAFGL_CKPT_INTERVAL");
    for (const auto& entry : fs::recursive_directory_iterator(durable_dir)) {
      if (!entry.is_regular_file()) continue;
      const auto n = static_cast<int64_t>(entry.file_size());
      const std::string file = entry.path().filename().string();
      if (file == "wal.log") out.wal_bytes += n;
      if (file.rfind("ckpt_", 0) == 0) {
        out.ckpt_bytes = std::max(out.ckpt_bytes, n);
      }
    }
    if (out.wal_bytes == 0 || out.ckpt_bytes == 0) {
      report->Fail("durable run left no WAL or checkpoint");
    }
    fs::remove_all(durable_dir);
  }
  return out;
}

/// Accumulates jobs; checks that repeats of one seed agree bit for bit.
struct JobLog {
  std::vector<double> wall;
  double first_acc = 0.0;
  void Add(const JobOutcome& j, Report* report) {
    if (wall.empty()) {
      first_acc = j.final_acc;
    } else if (j.final_acc != first_acc) {
      report->Fail("final_acc differs between repeats of one seed");
    }
    wall.push_back(j.wall_s);
    report->attempted += j.attempted;
    report->failed += j.failed;
  }
};

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  SeqRng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  }
  return m;
}

/// Timed calls into each layer's public functions on this workload's own
/// shapes, each inside a benchmark span.
void RunLayerProbes(const TrainSpec& spec, const FederatedDataset& data,
                    const FedConfig& cfg, const JobOutcome& job,
                    const RunOptions& opts, Report* report) {
  const uint64_t seed = opts.seed;
  const adafgl::Graph& g0 = data.clients[0];
  const int64_t n = g0.num_nodes();
  const int64_t f = g0.feature_dim();
  const int64_t c = g0.num_classes;
  constexpr double kProbeSeconds = 0.2;

  {
    const Matrix w = RandomMatrix(f, 64, seed ^ 1);
    const double t =
        TimeProbe("bench.tensor.matmul_mlp", kProbeSeconds, 5,
                  [&] { Matrix y = adafgl::MatMul(g0.features, w); });
    report->Set("tensor.gflops_mlp", 2.0 * n * f * 64 / t / 1e9, "GFLOP/s");
  }
  {
    const adafgl::CsrMatrix a_hat = adafgl::GcnNormalized(g0.adj);
    const Matrix h = RandomMatrix(n, 64, seed ^ 2);
    const double t = TimeProbe("bench.tensor.spmm", kProbeSeconds, 5,
                               [&] { Matrix y = a_hat.Multiply(h); });
    report->Set("tensor.gflops_spmm",
                2.0 * static_cast<double>(a_hat.nnz()) * 64 / t / 1e9,
                "GFLOP/s");
  }
  if (spec.adafgl) {
    // Step 2 propagates class distributions through the dense n x n matrix
    // of Eq. 5-6; probe exactly that product on each client's own matrix.
    std::vector<double> prop_ms, hcs_ms;
    Matrix p0;
    for (int32_t k = 0; k < data.num_clients(); ++k) {
      const adafgl::Graph& g = data.clients[static_cast<size_t>(k)];
      const Matrix probs = adafgl::Softmax(
          RandomMatrix(g.num_nodes(), g.num_classes, seed ^ (100 + k)));
      Matrix p;
      prop_ms.push_back(1e3 * TimeProbe("bench.core.propagation_matrix", 0.0,
                                        3, [&] {
        p = adafgl::BuildPropagationMatrix(g, probs, 0.5f);
      }));
      if (k == 0) p0 = std::move(p);
      adafgl::Rng rng(seed ^ (200 + k));
      hcs_ms.push_back(1e3 * TimeProbe("bench.core.hcs", 0.0, 3, [&] {
        adafgl::HomophilyConfidenceScore(g, 0.5, rng);
      }));
    }
    report->Set("core.propagation_ms", Median(prop_ms), "ms");
    report->Set("core.hcs_ms", Median(hcs_ms), "ms");
    const Matrix y = RandomMatrix(n, c, seed ^ 3);
    const double t = TimeProbe("bench.tensor.matmul_step2", kProbeSeconds, 5,
                               [&] { Matrix out = adafgl::MatMul(p0, y); });
    report->Set("tensor.gflops_step2", 2.0 * n * n * c / t / 1e9, "GFLOP/s");
  }
  {
    adafgl::FedClient client(g0, cfg, seed ^ 4);
    client.SetGlobalWeights(job.weights);
    report->Set("fed.train_epochs_ms",
                1e3 * TimeProbe("bench.fed.train_epochs", kProbeSeconds, 3,
                                [&] { client.TrainEpochs(cfg.local_epochs); }),
                "ms");
  }
  {
    const std::vector<std::vector<Matrix>> uploads(
        static_cast<size_t>(data.num_clients()), job.weights);
    std::vector<double> sizes;
    for (const adafgl::Graph& g : data.clients) {
      sizes.push_back(static_cast<double>(g.train_nodes.size()) + 1.0);
    }
    const double t = TimeProbe("bench.fed.average_weights", kProbeSeconds, 5,
                               [&] { adafgl::AverageWeights(uploads, sizes); });
    report->Set("fed.average_weights_ms", t * 1e3, "ms");
  }
  {
    auto codec = adafgl::comm::MakeCodec("lossless");
    std::string frame;
    const double enc = TimeProbe("bench.comm.encode", kProbeSeconds, 20, [&] {
      frame = adafgl::comm::EncodeFrame(adafgl::comm::MessageType::kWeights,
                                        codec->id(),
                                        codec->Encode(job.weights));
    });
    bool decoded_ok = true;
    const double dec = TimeProbe("bench.comm.decode", kProbeSeconds, 20, [&] {
      auto fr = adafgl::comm::DecodeFrame(frame);
      decoded_ok = decoded_ok && fr.ok() && codec->Decode(fr->payload).ok();
    });
    if (!decoded_ok) report->Fail("codec probe failed to round-trip");
    report->Set("comm.encode_us", enc * 1e6, "us");
    report->Set("comm.decode_us", dec * 1e6, "us");
  }
  if (!spec.adafgl) {
    // One durable commit per round: a checkpoint of the size the run wrote
    // plus one WAL record of the run's average record size.
    const fs::path dir = fs::path(opts.workdir) /
                         ("durable-probe-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string ckpt(static_cast<size_t>(job.ckpt_bytes), '\x5a');
    const std::string record(
        static_cast<size_t>(std::max<int64_t>(1, job.wal_bytes / cfg.rounds)),
        '\xa5');
    auto wal = adafgl::durable::WalWriter::Open((dir / "wal.log").string());
    bool ok = wal.ok();
    const double t = TimeProbe("bench.durable.commit", kProbeSeconds, 5, [&] {
      ok = ok &&
           adafgl::durable::AtomicWriteChecksummed((dir / "ckpt.bin").string(),
                                                   ckpt)
               .ok();
      // Append frames the record with EncodeWalRecord and fsyncs it.
      ok = ok && wal->Append(1, record).ok();
    });
    if (!ok) report->Fail("durable probe failed to write");
    report->Set("durable.commit_ms", t * 1e3, "ms");
    fs::remove_all(dir);
  }
}

Report RunTraining(const TrainSpec& spec, const RunOptions& opts) {
  Report report;
  const SetupResult setup = Setup(spec);
  const FedConfig cfg = MakeConfig(spec, opts.seed);
  JobLog log;
  if (!opts.trace) {
    const double start = NowSeconds();
    int rep = 0;
    do {
      log.Add(RunJob(spec, setup.data, cfg, opts, rep++, &report), &report);
      std::fprintf(stderr, "perfbench: %s job %d: %.3f s\n", spec.name, rep,
                   log.wall.back());
    } while (NowSeconds() - start < opts.seconds);
    report.Set("setup_s", setup.setup_s, "s");
    report.Set("peak_rss_mib", PeakRssMib(), "MiB");
    report.Set("work_s", Median(log.wall), "s");
    return report;
  }

  // Traced run: a warm-up job (the first job in a process runs cold), one
  // untraced job for the end-to-end figures and the tracing-overhead base,
  // then the same job under the program's metrics and tracing, then the
  // layer probes.
  log.Add(RunJob(spec, setup.data, cfg, opts, 0, &report), &report);
  const JobOutcome plain = RunJob(spec, setup.data, cfg, opts, 1, &report);
  log.Add(plain, &report);
  const double rounds = cfg.rounds;
  const auto& s = plain.comm;
  report.Set("train.final_acc", plain.final_acc, "ratio");
  report.Set("train.wire_mib",
             static_cast<double>(s.bytes_up + s.bytes_down) / (1 << 20), "MiB");
  report.Set("train.sim_round_s", s.sim_seconds / rounds, "s");
  report.Set("comm.frames",
             static_cast<double>(s.messages_up + s.messages_down), "count");
  report.Set("comm.bytes_per_round",
             static_cast<double>(s.bytes_up + s.bytes_down) / rounds, "bytes");
  report.Set("fed.update_apply_ratio",
             static_cast<double>(plain.applied) /
                 static_cast<double>(plain.attempted),
             "ratio");
  if (cfg.comm.kv.async) {
    const PsCounters& ps = plain.ps;
    const auto mean_us = [](double total_ns, int64_t n) {
      return total_ns / static_cast<double>(std::max<int64_t>(1, n)) / 1e3;
    };
    report.Set("kv.push_us", mean_us(ps.push_ns, ps.push_n), "us");
    report.Set("kv.pull_us", mean_us(ps.pull_ns, ps.pull_n), "us");
    report.Set("kv.stale_applied", static_cast<double>(ps.applied), "count");
    report.Set("kv.stale_rejected", static_cast<double>(ps.rejected), "count");
    report.Set("durable.bytes_per_round",
               static_cast<double>(plain.wal_bytes) / rounds +
                   static_cast<double>(plain.ckpt_bytes),
               "bytes");
  }
  report.Set("data.generate_s", setup.generate_s, "s");
  report.Set("partition.split_s", setup.split_s, "s");

  EnableProgramTracing(opts.workdir + "/trace-" + spec.name + ".json");
  const int64_t matmul0 = CounterValue("tensor.matmul.flops");
  const int64_t spmm0 = CounterValue("tensor.spmm.flops");
  const int64_t allocs0 = adafgl::obs::mem::AllocCount();
  adafgl::obs::mem::ResetPeakToLive();
  const int64_t live0 = adafgl::obs::mem::LiveBytes();
  const JobOutcome traced = RunJob(spec, setup.data, cfg, opts, 2, &report);
  log.Add(traced, &report);
  report.Set("tensor.matmul_flops",
             static_cast<double>(CounterValue("tensor.matmul.flops") - matmul0),
             "count");
  report.Set("tensor.spmm_flops",
             static_cast<double>(CounterValue("tensor.spmm.flops") - spmm0),
             "count");
  report.Set("tensor.allocs",
             static_cast<double>(adafgl::obs::mem::AllocCount() - allocs0),
             "count");
  report.Set("tensor.peak_mib",
             static_cast<double>(adafgl::obs::mem::PeakBytes() - live0) /
                 (1 << 20),
             "MiB");
  report.Set("obs.trace_overhead_ratio", traced.wall_s / plain.wall_s, "ratio");
  report.Set("nn.backward_s", SpanSummary("autograd.backward").total_s, "s");
  const double step2_s = SpanSummary("adafgl.step2").total_s;
  report.Set("core.step2_s", step2_s, "s");
  report.Set("core.step2_share", step2_s / traced.wall_s, "ratio");
  report.Set("core.step2_setup_s", SpanSummary("adafgl.step2.setup").total_s,
             "s");
  const SpanTotals round = SpanSummary("fed.round");
  const SpanTotals local = SpanSummary("fed.local_train");
  report.Set("fed.round_ms", round.mean_ms(), "ms");
  report.Set("fed.local_train_ms", local.mean_ms(), "ms");
  report.Set("fed.aggregate_ms", SpanSummary("fed.aggregate").mean_ms(), "ms");
  if (round.total_s > 0.0) {
    report.Set("par.pool_busy_ratio",
               local.total_s / (cfg.comm.num_threads * round.total_s), "ratio");
  }
  RunLayerProbes(spec, setup.data, cfg, traced, opts, &report);
  return report;
}

}  // namespace

Report RunAdaFglHetero3(const RunOptions& opts) {
  return RunTraining(kHetero3, opts);
}

Report RunFedAvg100c(const RunOptions& opts) {
  return RunTraining(kFedAvg100, opts);
}

}  // namespace perfbench
