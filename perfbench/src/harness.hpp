// The benchmark's own measurement rules, kept free of library
// dependencies so tests/test_harness.cpp can check them in isolation:
//
//   * exact percentiles over raw samples (no histogram bucketing), with
//     the count of samples beyond each reported percentile;
//   * a Poisson arrival schedule that is a pure function of its seed;
//   * the ladder rule that turns per-rate results into max_rps_at_slo;
//   * a span log for the benchmark's own spans (request, submit, forward,
//     sweep rows), with self time computed from parent links.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- exact percentiles ----

/// Nearest-rank percentile over raw samples: the smallest sample with at
/// least q*n samples at or below it. `beyond` counts the samples strictly
/// above the chosen rank, which says how well the tail is supported.
struct Percentile {
  double value = 0.0;
  int64_t beyond = 0;
};

inline Percentile percentile_sorted(const std::vector<double>& sorted, double q) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  if (n == 0) return {};
  int64_t idx = static_cast<int64_t>(std::ceil(q * static_cast<double>(n))) - 1;
  idx = std::clamp<int64_t>(idx, 0, n - 1);
  return {sorted[static_cast<size_t>(idx)], n - 1 - idx};
}

/// Minimum tail support for a reported percentile.
constexpr int64_t kMinBeyond = 10;

struct LatencySummary {
  int64_t n = 0;
  Percentile p50, p90, p99;
  /// Highest percentile (as a fraction) with at least kMinBeyond samples
  /// beyond it, and its value; q = 0 when n <= kMinBeyond.
  double top_q = 0.0;
  double top_value = 0.0;
};

inline LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.n = static_cast<int64_t>(samples.size());
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  if (s.n > kMinBeyond) {
    s.top_q = static_cast<double>(s.n - kMinBeyond) / static_cast<double>(s.n);
    s.top_value = samples[static_cast<size_t>(s.n - kMinBeyond - 1)];
  }
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Medians over windows (grids, seconds, passes) of each window's p50
/// and p90. A host slow period shorter than half the run moves these less
/// than it moves percentiles of the pooled samples. Windows with fewer
/// than `min_samples` samples are skipped; when that leaves none (a run
/// shorter than one window), all samples form one window.
struct WindowedPercentiles {
  double p50 = 0.0, p90 = 0.0;
  int64_t windows = 0;
};

inline WindowedPercentiles windowed_percentiles(const std::vector<std::vector<double>>& windows,
                                                size_t min_samples) {
  std::vector<double> p50, p90;
  for (const std::vector<double>& w : windows) {
    if (w.empty() || w.size() < min_samples) continue;
    const LatencySummary s = summarize(w);
    p50.push_back(s.p50.value);
    p90.push_back(s.p90.value);
  }
  if (p50.empty()) {
    std::vector<double> all;
    for (const std::vector<double>& w : windows) all.insert(all.end(), w.begin(), w.end());
    if (all.empty()) return {};
    const LatencySummary s = summarize(all);
    return {s.p50.value, s.p90.value, 1};
  }
  return {median(p50), median(p90), static_cast<int64_t>(p50.size())};
}

// ---- deterministic Poisson schedule ----

/// splitmix64: a tiny generator whose output is fully specified, so a
/// schedule is identical across compilers and standard libraries (the
/// std:: distributions are implementation-defined).
inline uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Arrival offsets in seconds, in [0, seconds), with exponential gaps of
/// mean 1/rate. Depends only on (seed, rate, seconds).
inline std::vector<double> poisson_schedule(uint64_t seed, double rate, double seconds) {
  std::vector<double> t;
  if (rate <= 0 || seconds <= 0) return t;
  uint64_t state = seed;
  double now = 0.0;
  for (;;) {
    const double u = (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;  // (0,1]
    now += -std::log(u) / rate;
    if (now >= seconds) return t;
    t.push_back(now);
  }
}

// ---- ladder rule ----

struct LadderStep {
  double rate = 0.0;      // nominal arrivals per second
  double goodput = 0.0;   // verified successes per second
  double p99_ms = 0.0;
  double fail_frac = 0.0;
  bool backlog_growing = false;
};

constexpr double kSloP99Ms = 10.0;
constexpr double kSloMaxFailFrac = 0.01;

inline bool meets_slo(const LadderStep& s) {
  return s.p99_ms <= kSloP99Ms && s.fail_frac <= kSloMaxFailFrac && !s.backlog_growing;
}

/// Index of the highest step of the ascending ladder that meets the SLO
/// with every lower step meeting it too (a pass above a failed step is
/// noise, not capacity); -1 when the lowest step already fails.
inline int max_step_at_slo(const std::vector<LadderStep>& ascending) {
  int best = -1;
  for (size_t i = 0; i < ascending.size(); ++i) {
    if (!meets_slo(ascending[i])) break;
    best = static_cast<int>(i);
  }
  return best;
}

// ---- the benchmark's own spans ----

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // request (or sweep row) the span belongs to
  double t0 = 0.0, t1 = 0.0;
};

struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // total minus the time covered by child spans
};

/// Append-only in-memory span log; written out when the run ends.
class SpanLog {
 public:
  int64_t add(std::string name, int64_t parent, int64_t request, double t0, double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back(Span{std::move(name), id, parent, request, t0, t1});
    return id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Per-name totals. Children of one parent are assumed not to overlap
  /// each other, which holds for every span this benchmark records.
  std::map<std::string, SpanTotals> totals() const {
    const std::vector<Span> all = spans();
    std::vector<double> child(all.size() + 1, 0.0);
    for (const Span& s : all) {
      if (s.parent > 0) child[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
    }
    std::map<std::string, SpanTotals> out;
    for (const Span& s : all) {
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_s += s.t1 - s.t0;
      t.self_s += (s.t1 - s.t0) - child[static_cast<size_t>(s.id)];
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
