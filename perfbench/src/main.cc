// Repository benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones (see
// README.md for the workload -> layer -> metric map).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "obs/obs.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"work_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // Untraced end-to-end figures of the traced run, reported ungated.
      {"train.final_acc", "ratio"},
      {"train.wire_mib", "MiB"},
      {"train.sim_round_s", "s"},
      {"serve.qps_bulk", "1/s"},
      {"serve.qps_slo", "1/s"},
      {"serve.slo_search_lo", "1/s"},
      {"serve.slo_search_hi", "1/s"},
      {"serve.p50_us", "us"},
      {"serve.p95_us", "us"},
      {"serve.p99_us", "us"},
      {"serve.p999_us", "us"},
      // tensor
      {"tensor.gflops_step2", "GFLOP/s"},
      {"tensor.gflops_mlp", "GFLOP/s"},
      {"tensor.gflops_spmm", "GFLOP/s"},
      {"tensor.matmul_flops", "count"},
      {"tensor.spmm_flops", "count"},
      {"tensor.allocs", "count"},
      {"tensor.peak_mib", "MiB"},
      // nn
      {"nn.backward_s", "s"},
      // core (AdaFGL Step 2)
      {"core.step2_s", "s"},
      {"core.step2_setup_s", "s"},
      {"core.step2_share", "ratio"},
      {"core.propagation_ms", "ms"},
      {"core.hcs_ms", "ms"},
      // fed
      {"fed.round_ms", "ms"},
      {"fed.local_train_ms", "ms"},
      {"fed.train_epochs_ms", "ms"},
      {"fed.aggregate_ms", "ms"},
      {"fed.average_weights_ms", "ms"},
      {"fed.update_apply_ratio", "ratio"},
      // par
      {"par.pool_busy_ratio", "ratio"},
      // comm
      {"comm.encode_us", "us"},
      {"comm.decode_us", "us"},
      {"comm.frames", "count"},
      {"comm.bytes_per_round", "bytes"},
      {"kv.push_us", "us"},
      {"kv.pull_us", "us"},
      {"kv.stale_applied", "count"},
      {"kv.stale_rejected", "count"},
      // durable
      {"durable.commit_ms", "ms"},
      {"durable.bytes_per_round", "bytes"},
      // serve
      {"serve.admit_us", "us"},
      {"serve.read_row_ns", "ns"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.queue_high_water", "count"},
      {"serve.send_lag_us", "us"},
      // data / partition
      {"data.generate_s", "s"},
      {"partition.split_s", "s"},
      // obs
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return specs;
}

void EnableProgramTracing(const std::string& trace_path) {
  adafgl::obs::SetMetricsEnabled(true);
  adafgl::obs::SetTracePath(trace_path);
  adafgl::obs::SetTraceEnabled(true);
}

SpanTotals SpanSummary(const char* name) {
  const auto phases = adafgl::obs::PhaseSummary();
  const auto it = phases.find(name);
  if (it == phases.end()) return {};
  return SpanTotals{it->second.count,
                    static_cast<double>(it->second.total_ns) / 1e9};
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<adafgl-hetero3|fedavg-100c|serve-zipf-300k> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n"
               "default seed %llu; held-out seed for confirming claims %llu\n",
               why, static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  return 2;
}

/// The program reads configuration from ADAFGL_* variables in many places;
/// a stray one would silently change what is measured.
bool EnvironmentIsHermetic() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADAFGL_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      ok = false;
    }
  }
  return ok;
}

/// Checks the printed metric set against the catalogue: exactly the
/// end-to-end set untraced, exactly the per-layer set traced (missing
/// layers read 0), every value finite, every end-to-end value non-zero.
void FinishMetrics(bool trace, Report* report) {
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> known;
  for (const MetricSpec& s : specs) {
    known.insert(s.name);
    auto it = report->metrics.find(s.name);
    if (it == report->metrics.end()) {
      if (!trace) report->Fail(std::string("missing metric ") + s.name);
      report->Set(s.name, 0.0, s.unit);
      continue;
    }
    if (it->second.unit != s.unit) {
      report->Fail(std::string("unit mismatch for ") + s.name);
    }
    if (!std::isfinite(it->second.value)) {
      report->Fail(std::string("non-finite metric ") + s.name);
    }
    if (!trace && it->second.value == 0.0) {
      report->Fail(std::string("zero end-to-end metric ") + s.name);
    }
  }
  for (auto it = report->metrics.begin(); it != report->metrics.end();) {
    if (known.count(it->first) == 0) {
      report->Fail("unlisted metric " + it->first);
      it = report->metrics.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      trace_flag = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
    } else if (arg == "--workdir") {
      opts.workdir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (trace_flag < 0) return Usage("--trace is required");
  opts.trace = trace_flag == 1;
  if (!EnvironmentIsHermetic()) return 3;

  std::error_code ec;
  std::filesystem::create_directories(opts.workdir, ec);
  if (ec) return Usage(("cannot create workdir " + opts.workdir).c_str());

  Report report;
  if (opts.workload == "adafgl-hetero3") {
    report = RunAdaFglHetero3(opts);
  } else if (opts.workload == "fedavg-100c") {
    report = RunFedAvg100c(opts);
  } else if (opts.workload == "serve-zipf-300k") {
    report = RunServeZipf(opts);
  } else {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  FinishMetrics(opts.trace, &report);
  if (report.attempted < 1) report.Fail("no operation attempted");
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n", e.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
