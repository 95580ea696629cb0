// Self-tests for the benchmark's measurement rules (src/harness.hpp).
// Plain asserts, no framework: the benchmark package builds without the
// repo's test dependencies. Run: ctest in the benchmark build directory,
// or the perfbench_harness_test binary directly.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> iota_samples(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles_are_exact() {
  using perfbench::summarize;
  // 1..1000: nearest rank puts p50 at 500 and p99 at 990, with exactly
  // 10 samples beyond p99 — the minimum tail support.
  const auto s = summarize(iota_samples(1000));
  check(s.n == 1000, "sample count");
  check(s.p50.value == 500.0, "p50 of 1..1000 is 500");
  check(s.p50.beyond == 500, "500 samples beyond p50");
  check(s.p90.value == 900.0 && s.p90.beyond == 100, "p90 of 1..1000 is 900, 100 beyond");
  check(s.p99.value == 990.0, "p99 of 1..1000 is 990");
  check(s.p99.beyond == 10, "10 samples beyond p99");
  check(std::fabs(s.top_q - 0.99) < 1e-12, "top supported percentile of 1000 samples is p99");
  check(s.top_value == 990.0, "top supported value matches p99");

  // A value between histogram buckets is reported as itself.
  const auto odd = summarize({1.0, 1.03, 1.05, 1.07});
  check(odd.p50.value == 1.03, "percentile returns a raw sample, not a bucket edge");

  // With too few samples no percentile has 10 samples beyond it.
  const auto few = summarize(iota_samples(10));
  check(few.top_q == 0.0, "no supported tail percentile below 11 samples");
  const auto eleven = summarize(iota_samples(11));
  check(eleven.top_value == 1.0 && eleven.p99.beyond == 0, "11 samples support only the minimum");

  check(summarize({}).n == 0, "empty input");
  check(perfbench::median({3, 1, 2, 4}) == 2.5, "even-length median averages the middle pair");
}

void test_windowed_percentiles() {
  using perfbench::windowed_percentiles;
  // Two steady windows and one slow one: the slow window does not move
  // the medians, while it would decide the pooled p90.
  std::vector<double> steady, slow;
  for (int i = 1; i <= 10; ++i) {
    steady.push_back(i);
    slow.push_back(100.0 * i);
  }
  const auto w = windowed_percentiles({steady, slow, steady, {1.0}}, 2);
  check(w.windows == 3, "windows below the sample floor are skipped");
  check(w.p50 == 5.0 && w.p90 == 9.0, "median over windows ignores one slow window");
  check(windowed_percentiles({}, 1).windows == 0, "no windows");
  const auto pooled = windowed_percentiles({{1.0, 2.0}, {3.0, 4.0}}, 5);
  check(pooled.windows == 1 && pooled.p50 == 2.0 && pooled.p90 == 4.0,
        "too few samples in every window: the pooled samples decide");
}

void test_poisson_schedule_is_deterministic() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(42, 1000.0, 5.0);
  const auto b = poisson_schedule(42, 1000.0, 5.0);
  const auto c = poisson_schedule(43, 1000.0, 5.0);
  check(a == b, "same seed gives the identical schedule");
  check(a != c, "different seeds give different schedules");
  check(!a.empty() && a.front() > 0.0 && a.back() < 5.0, "arrivals lie inside the window");
  bool ascending = true;
  for (size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i] > a[i - 1];
  check(ascending, "arrivals are strictly increasing");
  // 5000 expected arrivals; a Poisson count stays well within 5%.
  check(std::fabs(static_cast<double>(a.size()) - 5000.0) < 250.0, "mean rate matches");
  // A schedule is a prefix-stable function of the window.
  const auto shorter = poisson_schedule(42, 1000.0, 2.5);
  check(std::equal(shorter.begin(), shorter.end(), a.begin()), "shorter window is a prefix");
  check(poisson_schedule(1, 0.0, 5.0).empty(), "zero rate gives no arrivals");
}

void test_ladder_rule() {
  using perfbench::LadderStep;
  using perfbench::max_step_at_slo;
  const auto step = [](double rate, double p99, double fail, bool backlog) {
    LadderStep s;
    s.rate = rate;
    s.goodput = rate;
    s.p99_ms = p99;
    s.fail_frac = fail;
    s.backlog_growing = backlog;
    return s;
  };
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 9.9, 0, false),
                         step(300, 10.1, 0, false)}) == 1,
        "highest step with p99 <= 10 ms");
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 10.0, 0, false)}) == 1,
        "p99 exactly at the limit passes");
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 4, 0.02, false)}) == 0,
        "more than 1% failures fails the step");
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 4, 0.01, false)}) == 1,
        "exactly 1% failures passes");
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 4, 0, true)}) == 0,
        "a growing backlog fails the step even with low p99");
  check(max_step_at_slo({step(100, 3, 0, false), step(200, 20, 0, false),
                         step(300, 5, 0, false)}) == 0,
        "a pass above a failed step does not count");
  check(max_step_at_slo({step(100, 30, 0, false)}) == -1, "no passing step");
  check(max_step_at_slo({}) == -1, "empty ladder");
}

void test_span_self_time() {
  perfbench::SpanLog log;
  const int64_t req = log.add("request", 0, 7, 0.0, 10.0);
  log.add("submit", req, 7, 0.0, 1.0);
  log.add("forward", req, 7, 6.0, 9.0);
  const auto totals = log.totals();
  check(totals.at("request").count == 1, "one request span");
  check(std::fabs(totals.at("request").self_s - 6.0) < 1e-12,
        "request self time excludes submit and forward");
  check(std::fabs(totals.at("forward").self_s - 3.0) < 1e-12, "leaf self time is its duration");
  check(log.spans().at(1).request == 7 && log.spans().at(1).parent == req, "span links kept");
}

}  // namespace

int main() {
  test_percentiles_are_exact();
  test_windowed_percentiles();
  test_poisson_schedule_is_deterministic();
  test_ladder_rule();
  test_span_self_time();
  if (g_failures) {
    std::fprintf(stderr, "%d harness check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("harness checks passed\n");
  return 0;
}
