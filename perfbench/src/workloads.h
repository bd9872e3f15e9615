// The benchmark's three workloads and the pieces they share: run options,
// the metric catalogue, and the timed layer probes of the traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

/// Seed used when --seed is not given, and the seed held out from tuning
/// for confirming later performance claims.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 7919;

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable state and the trace file.
  std::string workdir = ".bench_work";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, on every workload.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed by every traced run, on every workload; a layer the workload
/// does not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

Report RunAdaFglHetero3(const RunOptions& opts);
Report RunFedAvg100c(const RunOptions& opts);
Report RunServeZipf(const RunOptions& opts);

/// Turns on the program's metrics and span tracing for the traced phase;
/// the Chrome trace is written to `trace_path` when the process exits.
void EnableProgramTracing(const std::string& trace_path);

/// Total and mean duration of one span name recorded so far.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double mean_ms() const { return count == 0 ? 0.0 : total_s * 1e3 / count; }
};
SpanTotals SpanSummary(const char* name);

/// Times `fn` inside a benchmark span named `span` until `min_seconds` have
/// passed and at least `min_reps` calls were made; returns the median
/// seconds per call.
template <typename Fn>
double TimeProbe(const char* span, double min_seconds, int min_reps, Fn&& fn) {
  std::vector<double> samples;
  const double start = NowSeconds();
  while (static_cast<int>(samples.size()) < min_reps ||
         NowSeconds() - start < min_seconds) {
    adafgl::obs::Span s(span);
    const double t0 = NowSeconds();
    fn();
    samples.push_back(NowSeconds() - t0);
  }
  return Median(std::move(samples));
}

/// Process peak resident set size in MiB.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
