// Self-tests of the benchmark's own measurement code (harness.h): order
// statistics against an exact sorted oracle, Zipf determinism per seed, and
// an open loop over a fake server with an injected stall. Exits non-zero on
// the first failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

/// Sorted-copy oracles: the definitions Median and Percentile implement.
double OracleMedian(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double OraclePercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  // Smallest x with at least ceil(q n) samples <= x.
  const auto need =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  for (size_t i = 0; i < v.size(); ++i) {
    if (i + 1 >= need) return v[i];
  }
  return v.back();
}

void TestOrderStatistics() {
  SeqRng rng(11);
  const double qs[] = {0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0};
  for (size_t n = 1; n <= 300; n += (n < 20 ? 1 : 37)) {
    std::vector<double> v(n);
    for (double& x : v) x = std::floor(rng.Uniform() * 50.0);  // Ties too.
    Expect(Median(v) == OracleMedian(v), "median matches sorted oracle");
    for (double q : qs) {
      Expect(Percentile(v, q) == OraclePercentile(v, q),
             "percentile matches sorted oracle");
    }
  }
  Expect(Median({}) == 0.0 && Percentile({}, 0.5) == 0.0, "empty sample is 0");
  Expect(Median({3.0, 1.0}) == 2.0, "even-count median averages the middle");
  Expect(Percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.95) == 5.0,
         "p95 of five samples is the maximum");
}

void TestZipf() {
  const int64_t n = 300000;
  ZipfSampler a(n, 1.0, 42), b(n, 1.0, 42), c(n, 1.0, 43);
  bool same = true, differs = false;
  int64_t zeros = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) {
    const int64_t x = a.Next();
    const int64_t y = b.Next();
    const int64_t z = c.Next();
    same = same && x == y;
    differs = differs || x != z;
    zeros += x == 0;
    Expect(x >= 0 && x < n, "zipf rank in range");
  }
  Expect(same, "zipf sequence is a pure function of the seed");
  Expect(differs, "zipf sequences differ across seeds");
  const double p0 = a.Probability(0);
  const double sd = std::sqrt(p0 * (1 - p0) / draws);
  Expect(std::fabs(static_cast<double>(zeros) / draws - p0) < 5 * sd,
         "zipf rank-0 frequency matches its probability");
  Expect(PoissonSchedule(1000.0, 50, 7) == PoissonSchedule(1000.0, 50, 7),
         "poisson schedule is a pure function of the seed");
}

/// A fake server whose admission blocks for `stall_ms` on request
/// `stall_at` (a pause inside the system), and which otherwise answers at
/// once, reporting a service latency of 20 us for every request.
void TestOpenLoopCountsStall() {
  constexpr int64_t kStallAt = 50;
  constexpr double kStallMs = 5.0;
  constexpr int64_t kServiceNs = 20000;
  const std::vector<double> due = PoissonSchedule(10000.0, 300, 3);
  auto run = [&](bool stall) {
    return RunOpenLoop<std::future<int64_t>>(
        due, 1000,
        [&](int64_t i) {
          if (stall && i == kStallAt) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<int>(kStallMs * 1e3)));
          }
          std::promise<int64_t> p;
          p.set_value(kServiceNs);
          return p.get_future();
        },
        [](int64_t, int64_t service_ns) { return service_ns; });
  };
  const OpenLoopResult calm = run(false);
  const OpenLoopResult stalled = run(true);
  Expect(calm.sent == 300 && stalled.sent == 300, "every request sent");
  Expect(stalled.latency_us.size() == 300, "every request completed");
  // The request right after the stall was due while the system was
  // blocked: its latency from due time must include nearly the whole stall,
  // although the server reported only 20 us of service.
  const double gap_us = (due[kStallAt + 1] - due[kStallAt]) * 1e6;
  Expect(stalled.latency_us[kStallAt + 1] >= kStallMs * 1e3 - gap_us - 200.0,
         "latency from due time includes the stall");
  Expect(stalled.send_lag_us[kStallAt + 1] >= kStallMs * 1e3 - gap_us - 200.0,
         "send lag records the stall");
  Expect(stalled.latency_us[kStallAt + 1] >
             Percentile(calm.latency_us, 0.5) + 0.5 * kStallMs * 1e3,
         "the stall shows against the undisturbed median");
  Expect(Percentile(calm.latency_us, 0.5) >= kServiceNs / 1e3,
         "latency is at least the reported service time");

  // A backlog past the limit stops the open loop instead of queueing.
  const OpenLoopResult backlog = RunOpenLoop<std::future<int64_t>>(
      due, 4,
      [](int64_t) {
        return std::async(std::launch::deferred, [] { return kServiceNs; });
      },
      [](int64_t, int64_t service_ns) { return service_ns; });
  Expect(backlog.backlog_exceeded && backlog.sent == 5,
         "backlog limit stops the generator");
}

void TestWindow() {
  int64_t max_outstanding = 0, outstanding = 0;
  const WindowResult w = RunWindow<std::future<int64_t>>(
      1000, 8, true,
      [&](int64_t i) {
        max_outstanding = std::max(max_outstanding, ++outstanding);
        std::promise<int64_t> p;
        p.set_value(i % 7 == 0 ? -1 : 1);
        return p.get_future();
      },
      [&](int64_t, int64_t v) {
        --outstanding;
        return v;
      });
  Expect(w.completed == 1000, "window completes every request");
  Expect(w.failed == 143, "window counts failed requests");  // 0, 7, ..., 994.
  Expect(max_outstanding == 8, "window bounds requests in flight");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestOrderStatistics();
  perfbench::TestZipf();
  perfbench::TestOpenLoopCountsStall();
  perfbench::TestWindow();
  if (perfbench::failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all passed\n");
  return 0;
}
