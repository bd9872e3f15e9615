// Measurement helpers shared by the benchmark workloads and their
// self-tests: exact order statistics, the seeded Zipf and Poisson traffic
// generators, the open-loop and bounded-window load drivers, and the
// one-line JSON result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Median as Python's statistics.median defines it: the middle value, or
/// the mean of the two middle values for an even count. 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

/// Nearest-rank percentile: the smallest sample x such that at least
/// ceil(q * n) samples are <= x (q in (0, 1]). 0 for no samples.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// ---------------------------------------------------------------------------
// Seeded generators.

/// SplitMix64 finalizer: a stateless hash used wherever a value must be a
/// pure function of its coordinates (store rows, schedules).
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from a 64-bit hash.
inline double UnitFromBits(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Sequential generator over Mix64 (deterministic per seed).
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(Mix64(seed ^ 0x5eb5eb5eULL)) {}
  uint64_t Next() { return Mix64(state_++); }
  double Uniform() { return UnitFromBits(Next()); }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
/// Inverse-CDF sampling over a precomputed table, so the draw sequence is a
/// pure function of (n, s, seed).
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s, uint64_t seed) : rng_(seed) {
    cdf_.resize(static_cast<size_t>(n));
    double acc = 0.0;
    for (int64_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<size_t>(k)] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }

  int64_t Next() {
    const double u = rng_.Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<int64_t>(static_cast<int64_t>(it - cdf_.begin()),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

  /// Exact probability of `rank`.
  double Probability(int64_t rank) const {
    const auto k = static_cast<size_t>(rank);
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  SeqRng rng_;
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (seconds from the start) for `count` requests at
/// `rate` per second: cumulative exponential inter-arrival gaps.
inline std::vector<double> PoissonSchedule(double rate, int64_t count,
                                           uint64_t seed) {
  SeqRng rng(seed);
  std::vector<double> due(static_cast<size_t>(count));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    due[static_cast<size_t>(i)] = t;
  }
  return due;
}

// ---------------------------------------------------------------------------
// Load drivers. `submit(i)` sends request i and returns a future; `finish(i,
// result)` inspects the completed result and returns the service latency in
// nanoseconds as the system reported it, or a negative value when the
// request failed (rejected, errored, or wrong).

struct OpenLoopResult {
  int64_t sent = 0;
  int64_t failed = 0;
  /// Per successful request: send lag + reported service latency, in
  /// microseconds — latency measured from the request's due time.
  std::vector<double> latency_us;
  /// Per sent request: how late the generator sent it, in microseconds.
  std::vector<double> send_lag_us;
  /// Most requests in flight (sent, not yet harvested) at any send.
  size_t max_outstanding = 0;
  /// Stopped early because outstanding requests exceeded the backlog limit.
  bool backlog_exceeded = false;
};

/// Open loop: request i is due at start + due[i] regardless of how earlier
/// requests fare. The generator spins until each due time, harvesting
/// completed requests in order while it waits. A request's latency counts
/// from its due time, so a stall in the generator or the system shows up in
/// every request it delays. When more than `max_outstanding` requests are
/// in flight the backlog is growing and the run stops sending.
template <typename Future, typename Submit, typename Finish>
OpenLoopResult RunOpenLoop(const std::vector<double>& due,
                           size_t max_outstanding, Submit&& submit,
                           Finish&& finish) {
  OpenLoopResult out;
  out.latency_us.reserve(due.size());
  out.send_lag_us.reserve(due.size());
  struct InFlight {
    int64_t index;
    int64_t lag_ns;
    Future future;
  };
  std::deque<InFlight> inflight;
  auto complete_front = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const int64_t service_ns = finish(f.index, f.future.get());
    if (service_ns < 0) {
      ++out.failed;
    } else {
      out.latency_us.push_back(static_cast<double>(f.lag_ns + service_ns) /
                               1e3);
    }
  };
  auto harvest_ready = [&] {
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      complete_front();
    }
  };
  const int64_t start = NowNanos();
  for (size_t i = 0; i < due.size(); ++i) {
    const int64_t due_ns = start + static_cast<int64_t>(due[i] * 1e9);
    while (NowNanos() < due_ns) harvest_ready();
    const int64_t lag_ns = NowNanos() - due_ns;
    const auto index = static_cast<int64_t>(i);
    inflight.push_back(InFlight{index, lag_ns, submit(index)});
    ++out.sent;
    out.send_lag_us.push_back(static_cast<double>(lag_ns) / 1e3);
    harvest_ready();
    out.max_outstanding = std::max(out.max_outstanding, inflight.size());
    if (inflight.size() > max_outstanding) {
      out.backlog_exceeded = true;
      break;
    }
  }
  while (!inflight.empty()) complete_front();
  return out;
}

struct WindowResult {
  int64_t completed = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;
  /// Total time spent inside submit() (admission), seconds.
  double submit_s = 0.0;
};

/// Bounded in-flight window: keeps at most `window` requests outstanding,
/// waiting on the oldest before sending the next. Measures throughput.
/// With `time_submit` the time spent inside submit() is summed (two clock
/// reads per request, so it is off for the untraced measurement).
template <typename Future, typename Submit, typename Finish>
WindowResult RunWindow(int64_t count, size_t window, bool time_submit,
                       Submit&& submit, Finish&& finish) {
  WindowResult out;
  std::deque<std::pair<int64_t, Future>> inflight;
  auto complete_front = [&] {
    auto [index, future] = std::move(inflight.front());
    inflight.pop_front();
    if (finish(index, future.get()) < 0) ++out.failed;
    ++out.completed;
  };
  int64_t submit_ns = 0;
  const double start = NowSeconds();
  for (int64_t i = 0; i < count; ++i) {
    if (inflight.size() >= window) complete_front();
    if (time_submit) {
      const int64_t t0 = NowNanos();
      inflight.emplace_back(i, submit(i));
      submit_ns += NowNanos() - t0;
    } else {
      inflight.emplace_back(i, submit(i));
    }
  }
  while (!inflight.empty()) complete_front();
  out.elapsed_s = NowSeconds() - start;
  out.submit_s = static_cast<double>(submit_ns) / 1e9;
  return out;
}

// ---------------------------------------------------------------------------
// Result reporting.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the last line of standard output.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Why `correct` is false (printed to stderr, not in the JSON line).
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }

  std::string ToJson() const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics) {
      if (!first) s += ", ";
      first = false;
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
    }
    s += "}}";
    return s;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
