#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/allocation.hpp"
#include "core/experiment.hpp"
#include "core/pruner.hpp"
#include "core/scoring.hpp"
#include "core/strategy.hpp"
#include "harness.hpp"
#include "models/zoo.hpp"
#include "nn/init.hpp"
#include "nn/layer.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "serve/executor.hpp"
#include "serve/server.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {
namespace {

namespace sb = shrinkbench;
using Clock = std::chrono::steady_clock;
using sb::Tensor;
using sb::serve::ExecMode;

// ---- committed constants (never derived from the code under test) ----

/// Set-up repeats per run (setup_s is their median): the inference
/// fixture is cheap, the sweep's pretraining is not.
constexpr int kFixtureSetups = 9;
constexpr int kSweepSetups = 3;
const sb::Shape kSample{3, 32, 32};
constexpr int64_t kWidth = 8;
constexpr int kInputPool = 128;
/// csr/shrunk rows may differ from the same executor's batch-1 output by
/// this much relative to 1 + max|reference|: the sparse kernels and the
/// folded batch norm sum in a batch-dependent order. Dense is bit-exact.
constexpr float kSparseTol = 1e-5f;
/// serve-trickle arrival rate: far below capacity, so batches stay near 1.
constexpr double kTrickleRps = 100.0;
/// serve-ladder rates, ascending; about 8% apart around the knee, which
/// sat between 3300 and 5000 req/s on a 4-core AVX-512 host with
/// SB_THREADS=2. The named rate for latency sits below the knee; the top
/// rung is far past it, so its goodput is the server's capacity. The
/// ladder is climbed kLadderPasses times; the named rate and the top rung
/// get kReportedRungWeight times the arrivals of the other rungs, because
/// their medians are the workload's end-to-end numbers.
const std::vector<double> kLadderRps = {1000, 2000, 3000, 3300, 3600, 3900,
                                        4200, 4500, 4800, 5200, 10000};
constexpr double kLadderNamedRps = 2000;
constexpr int kLadderPasses = 4;
constexpr double kReportedRungWeight = 3;
/// Offered rates above this are served at capacity, so a rung's time is
/// its arrivals over this rather than over its rate.
constexpr double kLadderCapacityRps = 5000;
/// An open-loop generator whose median lag exceeds this (a tenth of the
/// SLO) at a rate that meets the SLO has fallen behind its schedule: the
/// harness, not the server, set the latency, and the run is invalid.
/// Single late sends (host stalls) show in the lag p99, which is reported.
constexpr double kMaxGenLagMs = 1.0;
/// Achieved / target compression a sweep row must reach. Unstructured
/// allocation keeps an exact weight count. Channel allocation keeps whole
/// channels and at least one per layer, so it undershoots: resnet-20 at
/// 16x reaches about 11.5x (0.72), at 4x about 3.7x (0.92).
constexpr double kUnstructuredTol = 0.01;
constexpr double kChannelMinRatio = 0.5;
const std::vector<std::string> kSweepStrategies = {"global-weight", "global-gradient",
                                                   "global-channel"};
const std::vector<double> kSweepCompressions = {4, 16};
/// Columns of experiment_csv_row that carry wall-clock time.
const std::vector<std::string> kTimingColumns = {"seconds", "pretrain_s", "prune_s",
                                                 "finetune_s", "eval_s"};

const std::vector<std::string> kModes = {"dense", "csr", "shrunk"};

const Clock::time_point g_epoch = Clock::now();
double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }
void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t)));
}

uint64_t mix(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x100000001B3ull + stream;
  return splitmix64(s);
}

void note(RunResult& r, const std::string& what) {
  if (r.errors.size() < 8) r.errors.push_back(what);
}

/// Every per-layer metric, in report order; the ones a workload does not
/// exercise stay 0 (that layer did no work in it).
std::vector<Metric> layer_template() {
  std::vector<Metric> m = {
      {"serve.server.wait_p50_ms", 0, "ms"},
      {"serve.server.wait_p99_ms", 0, "ms"},
      {"serve.server.mean_batch", 0, "count"},
      {"serve.server.max_queue_depth", 0, "count"},
      {"serve.server.submit_p99_us", 0, "us"},
      {"serve.executor.busy_frac", 0, "frac"},
  };
  for (const std::string& mode : kModes) {
    const std::string p = "serve.executor." + mode;
    for (const char* b : {"fwd_b1_us", "fwd_b8_us", "fwd_b64_us"}) m.push_back({p + "." + b, 0, "us"});
    m.push_back({p + ".macs_dense", 0, "count"});
    m.push_back({p + ".macs_effective", 0, "count"});
    m.push_back({p + ".speedup_theoretical", 0, "x"});
    m.push_back({p + ".speedup_measured", 0, "x"});
    m.push_back({p + ".img_per_s", 0, "1/s"});
  }
  const std::vector<Metric> rest = {
      {"tensor.threadpool.jobs_per_fwd", 0, "count"},
      {"tensor.threadpool.chunks_per_job", 0, "count"},
      {"tensor.threadpool.chunk_self_s", 0, "s"},
      {"tensor.gemm.flops", 0, "count"},
      {"tensor.gemm.out_bytes", 0, "B"},
      {"tensor.im2col.bytes", 0, "B"},
      {"tensor.workspace.high_water_bytes", 0, "B"},
      {"nn.conv2d.fwd_self_s", 0, "s"},
      {"nn.conv2d.bwd_self_s", 0, "s"},
      {"core.experiment.prune_s", 0, "s"},
      {"core.experiment.finetune_s", 0, "s"},
      {"core.experiment.eval_s", 0, "s"},
      {"core.train.epoch_s_p50", 0, "s"},
      {"core.train.finetune_samples_per_s", 0, "1/s"},
      {"core.pruner.score_s", 0, "s"},
      {"metrics.evaluate_s", 0, "s"},
      {"core.pretrained.pretrain_s", 0, "s"},
      {"data.synthetic.build_s", 0, "s"},
      {"harness.gen_lag_p99_ms", 0, "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// A result whose per-layer table is ready to fill on traced runs.
RunResult start(const RunConfig& cfg) {
  RunResult r;
  if (cfg.traced) r.layers = layer_template();
  return r;
}

void set_layer(RunResult& r, const std::string& name, double value) {
  for (Metric& m : r.layers) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

std::string json_summary(const LatencySummary& s) {
  std::ostringstream os;
  os << "{\"n\":" << s.n << ",\"p50\":" << sb::obs::json_num(s.p50.value)
     << ",\"p50_beyond\":" << s.p50.beyond << ",\"p90\":" << sb::obs::json_num(s.p90.value)
     << ",\"p90_beyond\":" << s.p90.beyond << ",\"p99\":" << sb::obs::json_num(s.p99.value)
     << ",\"p99_beyond\":" << s.p99.beyond << ",\"top_q\":" << sb::obs::json_num(s.top_q)
     << ",\"top_value\":" << sb::obs::json_num(s.top_value) << "}";
  return os.str();
}

void end_to_end(RunResult& r, double setup_s, double ok, double p50_ms, double p90_ms,
                double goodput) {
  const double attempted = static_cast<double>(std::max<int64_t>(r.attempted, 1));
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", sb::obs::sample_resources().peak_rss_mb, "MB"},
      {"ok_frac", ok / attempted, "frac"},
      {"lat_p50_ms", p50_ms, "ms"},
      {"goodput_per_s", goodput, "1/s"},
  };
  // Reported, not gated: on a shared host it spread past any usable bound.
  r.info.emplace_back("lat_p90_ms", sb::obs::json_num(p90_ms));
}

// ---- profiler access (traced runs only; never constructs it otherwise) ----

struct ProfCut {
  std::map<std::string, int64_t> counters;
  std::map<std::string, SpanTotals> by_leaf;  // span stats summed per leaf name
};

ProfCut prof_cut() {
  ProfCut cut;
  if (!sb::obs::profiling_enabled()) return cut;
  const sb::obs::MetricsSnapshot snap = sb::obs::Profiler::instance().snapshot();
  cut.counters = snap.counters;
  for (const auto& [path, s] : snap.spans) {
    const size_t slash = path.rfind('/');
    SpanTotals& t = cut.by_leaf[slash == std::string::npos ? path : path.substr(slash + 1)];
    t.count += s.count;
    t.total_s += s.total_seconds;
    t.self_s += s.self_seconds();
  }
  return cut;
}

int64_t counter_delta(const ProfCut& a, const ProfCut& b, const std::string& name) {
  const auto get = [&](const ProfCut& c) {
    const auto it = c.counters.find(name);
    return it == c.counters.end() ? int64_t{0} : it->second;
  };
  return get(b) - get(a);
}

SpanTotals span_delta(const ProfCut& a, const ProfCut& b, const std::string& leaf) {
  const auto get = [&](const ProfCut& c) {
    const auto it = c.by_leaf.find(leaf);
    return it == c.by_leaf.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals x = get(a), y = get(b);
  return {y.count - x.count, y.total_s - x.total_s, y.self_s - x.self_s};
}

/// Harness seconds -> profiler seconds (both steady_clock based).
double prof_offset() {
  if (!sb::obs::profiling_enabled()) return 0.0;
  return sb::obs::Profiler::instance().now_seconds() - now_s();
}

struct TraceEvent {
  double t0 = 0.0, dur = 0.0;
  double t1() const { return t0 + dur; }
};

/// Complete events named `name` from the in-memory Chrome trace, in
/// profiler seconds, sorted by end time. Scans the serialized form the
/// profiler emits instead of building a DOM for every event.
std::vector<TraceEvent> trace_events(const std::string& name) {
  std::vector<TraceEvent> out;
  if (!sb::obs::profiling_enabled()) return out;
  const std::string text = sb::obs::Profiler::instance().trace_json();
  const std::string key = "{\"name\":" + sb::obs::json_str(name) + ",";
  for (size_t pos = text.find(key); pos != std::string::npos; pos = text.find(key, pos + 1)) {
    const size_t end = text.find('}', pos);
    const size_t ts = text.find("\"ts\":", pos);
    const size_t dur = text.find("\"dur\":", pos);
    if (ts > end || dur > end) continue;
    out.push_back({std::strtod(text.c_str() + ts + 5, nullptr) * 1e-6,
                   std::strtod(text.c_str() + dur + 6, nullptr) * 1e-6});
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.t1() < b.t1(); });
  return out;
}

void layer_counters(RunResult& r, const ProfCut& a, const ProfCut& b, double units,
                    double forwards) {
  const double jobs = static_cast<double>(counter_delta(a, b, "threadpool.jobs"));
  const double chunks = static_cast<double>(counter_delta(a, b, "threadpool.chunks"));
  const double u = std::max(units, 1.0);
  if (forwards > 0) set_layer(r, "tensor.threadpool.jobs_per_fwd", jobs / forwards);
  if (jobs > 0) set_layer(r, "tensor.threadpool.chunks_per_job", chunks / jobs);
  set_layer(r, "tensor.threadpool.chunk_self_s", span_delta(a, b, "pool.chunk").self_s / u);
  set_layer(r, "tensor.gemm.flops", static_cast<double>(counter_delta(a, b, "gemm.flops")) / u);
  set_layer(r, "tensor.gemm.out_bytes",
            4.0 * static_cast<double>(counter_delta(a, b, "gemm.elements")) / u);
  set_layer(r, "tensor.im2col.bytes",
            4.0 * static_cast<double>(counter_delta(a, b, "im2col.elements")) / u);
  set_layer(r, "tensor.workspace.high_water_bytes",
            static_cast<double>(sb::Workspace::tls().high_water()));
  set_layer(r, "nn.conv2d.fwd_self_s", span_delta(a, b, "conv2d.fwd").self_s / u);
  set_layer(r, "nn.conv2d.bwd_self_s", span_delta(a, b, "conv2d.bwd").self_s / u);
}

/// Traced runs: the per-layer self-time table — the benchmark's own spans
/// (harness.*) next to the spans src/ records (src.*, summed per leaf
/// name over the measured window).
void record_spans(RunResult& r, const SpanLog& spans, const ProfCut& a, const ProfCut& b) {
  std::map<std::string, SpanTotals> table;
  for (const auto& [name, t] : spans.totals()) table["harness." + name] = t;
  for (const auto& [leaf, t] : b.by_leaf) {
    // The pruner's per-parameter spans ("stage1.block0.conv1.weight")
    // stay inside their "score" parent.
    const bool param = leaf.ends_with(".weight") || leaf.ends_with(".bias");
    const SpanTotals d = span_delta(a, b, leaf);
    if (d.count > 0 && !param) table["src." + leaf] = d;
  }
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, t] : table) {
    os << (first ? "" : ",") << sb::obs::json_str(name) << ":{\"count\":" << t.count
       << ",\"total_s\":" << sb::obs::json_num(t.total_s)
       << ",\"self_s\":" << sb::obs::json_num(t.self_s) << "}";
    first = false;
  }
  os << "}";
  r.info.emplace_back("spans", os.str());
}

// ---- inference fixture: two pruned models, three executors ----

/// A trained-looking pruned cifar-vgg: Kaiming weights, BN running stats
/// from train-mode forwards, global magnitude masks. The fixed seed keeps
/// the sparsity pattern (and so the kernel cost) identical across runs.
sb::ModelPtr build_pruned(sb::Structure structure, double keep) {
  sb::Rng rng(17);
  sb::ModelPtr model = sb::make_model("cifar-vgg", kSample, /*num_classes=*/10, kWidth);
  sb::init_model(*model, rng);
  for (int i = 0; i < 2; ++i) {
    Tensor x(sb::Shape{4, kSample[0], kSample[1], kSample[2]});
    rng.fill_normal(x, 0, 1);
    model->forward(x, /*train=*/true);
  }
  sb::PruneOptions opts;
  std::vector<sb::ScoredParam> scored;
  for (sb::Parameter* p : sb::prunable_params(*model, opts)) {
    scored.push_back({p, sb::score_parameter(sb::ScoreKind::Magnitude, *p, {}, rng)});
  }
  sb::allocate_masks(scored, sb::AllocationScope::Global, structure, keep);
  sb::apply_masks(*model);
  return model;
}

struct Exec {
  std::string name;
  sb::serve::Executor exec;
  bool exact = false;
  std::vector<Tensor> refs;  // batch-1 output for each pool input
};

struct Fixture {
  std::vector<Tensor> inputs;  // [3,32,32] each
  std::vector<Exec> execs;     // dense, csr, shrunk

  const Exec& get(const std::string& name) const {
    for (const Exec& e : execs) {
      if (e.name == name) return e;
    }
    throw std::logic_error("no executor " + name);
  }

  Tensor batch(const std::vector<int>& samples) const {
    const int64_t per = inputs.front().numel();
    Tensor b(sb::Shape{static_cast<int64_t>(samples.size()), kSample[0], kSample[1], kSample[2]});
    for (size_t i = 0; i < samples.size(); ++i) {
      std::memcpy(b.data() + static_cast<int64_t>(i) * per, inputs[static_cast<size_t>(samples[i])].data(),
                  static_cast<size_t>(per) * sizeof(float));
    }
    return b;
  }
};

/// Unstructured keep 0.1 compiled dense and csr; channel keep 0.25
/// compiled shrunk; batch-1 references for every pool input.
Fixture build_fixture(uint64_t seed) {
  Fixture f;
  sb::Rng rng(mix(seed, 1));
  for (int i = 0; i < kInputPool; ++i) {
    Tensor x(kSample);
    rng.fill_normal(x, 0, 1);
    f.inputs.push_back(std::move(x));
  }
  sb::ModelPtr unstructured = build_pruned(sb::Structure::Unstructured, 0.1);
  sb::ModelPtr channel = build_pruned(sb::Structure::Channel, 0.25);
  f.execs.push_back({"dense", sb::serve::compile(*unstructured, kSample, ExecMode::Dense), true, {}});
  f.execs.push_back({"csr", sb::serve::compile(*unstructured, kSample, ExecMode::Csr), false, {}});
  f.execs.push_back({"shrunk", sb::serve::compile(*channel, kSample, ExecMode::Shrunk), false, {}});
  for (Exec& e : f.execs) {
    for (int i = 0; i < kInputPool; ++i) e.refs.push_back(e.exec.forward(f.batch({i})));
  }
  return f;
}

/// Builds the fixture kFixtureSetups times; returns the last and the
/// median build time.
Fixture timed_fixture(uint64_t seed, double* setup_s) {
  std::vector<double> times;
  Fixture f;
  for (int i = 0; i < kFixtureSetups; ++i) {
    const double t0 = now_s();
    f = build_fixture(seed);
    times.push_back(now_s() - t0);
  }
  *setup_s = median(times);
  return f;
}

bool row_matches(const Exec& e, int sample, const float* out) {
  const Tensor& ref = e.refs[static_cast<size_t>(sample)];
  const size_t n = static_cast<size_t>(ref.numel());
  if (e.exact) return std::memcmp(out, ref.data(), n * sizeof(float)) == 0;
  float scale = 1.0f;
  for (size_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(ref.data()[i]));
  for (size_t i = 0; i < n; ++i) {
    if (!(std::fabs(out[i] - ref.data()[i]) <= kSparseTol * scale)) return false;
  }
  return true;
}

/// Traced runs: harness-timed Executor::forward at batch 1, 8 and 64 for
/// every executor, plus each executor's compile-time MAC counts.
void probe_executors(RunResult& r, const Fixture& f, SpanLog& spans) {
  std::map<std::string, double> b64;
  for (const Exec& e : f.execs) {
    const std::string p = "serve.executor." + e.name;
    for (const int b : {1, 8, 64}) {
      std::vector<int> samples;
      for (int i = 0; i < b; ++i) samples.push_back(i % kInputPool);
      const Tensor x = f.batch(samples);
      e.exec.forward(x);  // warm
      std::vector<double> us;
      for (int rep = 0; rep < (b == 64 ? 10 : 30); ++rep) {
        const double t0 = now_s();
        e.exec.forward(x);
        const double t1 = now_s();
        spans.add("probe.forward", 0, 0, t0, t1);
        us.push_back((t1 - t0) * 1e6);
      }
      set_layer(r, p + ".fwd_b" + std::to_string(b) + "_us", median(us));
      if (b == 64) b64[e.name] = median(us);
    }
    set_layer(r, p + ".macs_dense", static_cast<double>(e.exec.flops_dense()));
    set_layer(r, p + ".macs_effective", static_cast<double>(e.exec.flops_effective()));
    set_layer(r, p + ".speedup_theoretical", e.exec.theoretical_speedup());
  }
  for (const Exec& e : f.execs) {
    set_layer(r, "serve.executor." + e.name + ".speedup_measured", b64["dense"] / b64[e.name]);
  }
}

// ---- open-loop serving ----

struct Outcome {
  double sched = 0, sub0 = 0, sub1 = 0, done = 0;  // harness seconds
  bool ok = false;  // fulfilled with a verified output
};

/// Submits one request per schedule entry at origin + offset (sleeping
/// until due; a late generator submits at once and the lateness lands in
/// the latency), while a collector thread waits the futures in order and
/// verifies each output. Returns once every future is ready.
std::vector<Outcome> drive_open_loop(sb::serve::InferenceServer& server, const Fixture& f,
                                     const Exec& exec, const std::vector<double>& schedule,
                                     double origin, uint64_t seed, RunResult& r) {
  const size_t n = schedule.size();
  std::vector<Outcome> out(n);
  std::vector<int> sample(n);
  uint64_t state = seed;
  for (int& s : sample) s = static_cast<int>(splitmix64(state) % kInputPool);

  struct Pending {
    size_t i;
    std::future<Tensor> fut;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool generating = true;
  std::mutex note_mu;
  const auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(note_mu);
    note(r, what);
  };

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || !generating; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      Outcome& o = out[p.i];
      try {
        const Tensor y = p.fut.get();
        o.done = now_s();
        o.ok = row_matches(exec, sample[p.i], y.data());
        if (!o.ok) fail(exec.name + " response differs from its batch-1 reference");
      } catch (const std::exception& e) {
        o.done = now_s();
        fail(std::string("request failed: ") + e.what());
      }
    }
  });

  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      generating = false;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (size_t i = 0; i < n; ++i) {
      Tensor x = f.inputs[static_cast<size_t>(sample[i])].clone();
      Outcome& o = out[i];
      o.sched = origin + schedule[i];
      sleep_until_s(o.sched);
      o.sub0 = now_s();
      try {
        std::future<Tensor> fut = server.submit(std::move(x));
        o.sub1 = now_s();
        {
          std::lock_guard<std::mutex> lock(mu);
          queue.push_back({i, std::move(fut)});
        }
        cv.notify_one();
      } catch (const std::exception& e) {
        o.sub1 = o.done = now_s();
        fail(std::string("submit refused: ") + e.what());
      }
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return out;
}

/// Requests before timing: pool threads spawned, caches warm, and the
/// workspace arenas grown. Bursts of max_batch come first so the first
/// batches are the largest: an arena grows by doubling, and growing it
/// batch size by batch size in arrival order would make peak RSS depend
/// on timing.
void warm_server(sb::serve::InferenceServer& server, const Fixture& f, int64_t max_batch) {
  int next = 0;
  const auto request = [&] { return f.inputs[static_cast<size_t>(next++ % kInputPool)].clone(); };
  for (int burst = 0; burst < 8; ++burst) {
    std::vector<std::future<Tensor>> futures;
    for (int64_t i = 0; i < max_batch; ++i) futures.push_back(server.submit(request()));
    for (std::future<Tensor>& fut : futures) fut.get();
  }
  for (int i = 0; i < 64; ++i) server.submit(request()).get();
}

struct ServeTrace {
  std::vector<double> wait_ms, submit_us;
};

/// Traced runs: the request/submit/forward spans of each outcome. The
/// forward is the serve.exec event of the batch that answered it — the
/// last one to end before the future was ready (one server worker).
void trace_requests(const std::vector<Outcome>& outs, const std::vector<TraceEvent>& execs,
                    double offset, int64_t first_id, SpanLog& spans, ServeTrace& t) {
  for (size_t i = 0; i < outs.size(); ++i) {
    const Outcome& o = outs[i];
    const int64_t rid = first_id + static_cast<int64_t>(i);
    const int64_t req = spans.add("request", 0, rid, o.sched, o.done);
    spans.add("submit", req, rid, o.sub0, o.sub1);
    t.submit_us.push_back((o.sub1 - o.sub0) * 1e6);
    if (!o.ok) continue;
    const double ready = o.done + offset;
    auto it = std::upper_bound(execs.begin(), execs.end(), ready,
                               [](double v, const TraceEvent& e) { return v < e.t1(); });
    if (it == execs.begin()) continue;
    --it;
    if (it->t1() < o.sub1 + offset) continue;  // no batch ran after the submit
    spans.add("forward", req, rid, it->t0 - offset, it->t1() - offset);
    t.wait_ms.push_back((o.done - o.sched - it->dur) * 1e3);
  }
}

void serving_layers(RunResult& r, const sb::serve::InferenceServer& server, const ProfCut& a,
                    const ProfCut& b, double window_s, const ServeTrace& t,
                    const std::vector<double>& lag_ms, double requests) {
  const sb::serve::ServerStats st = server.stats();
  const LatencySummary wait = summarize(t.wait_ms);
  set_layer(r, "serve.server.wait_p50_ms", wait.p50.value);
  set_layer(r, "serve.server.wait_p99_ms", wait.p99.value);
  set_layer(r, "serve.server.mean_batch",
            st.batches > 0 ? static_cast<double>(st.completed) / static_cast<double>(st.batches) : 0);
  set_layer(r, "serve.server.max_queue_depth", static_cast<double>(st.max_queue_depth));
  set_layer(r, "serve.server.submit_p99_us", summarize(t.submit_us).p99.value);
  const SpanTotals exec = span_delta(a, b, "serve.exec");
  set_layer(r, "serve.executor.busy_frac", window_s > 0 ? exec.total_s / window_s : 0);
  set_layer(r, "harness.gen_lag_p99_ms", summarize(lag_ms).p99.value);
  layer_counters(r, a, b, requests, static_cast<double>(exec.count));
  r.info.emplace_back("wait_ms", json_summary(wait));
}

RunResult serve_trickle(const RunConfig& cfg) {
  RunResult r = start(cfg);
  double setup_s = 0;
  const Fixture f = timed_fixture(cfg.seed, &setup_s);
  const Exec& exec = f.get("shrunk");
  const sb::serve::ServerOptions opts;
  sb::serve::InferenceServer server(exec.exec, opts);
  warm_server(server, f, opts.max_batch);

  const std::vector<double> schedule = poisson_schedule(mix(cfg.seed, 2), kTrickleRps, cfg.seconds);
  const double offset = prof_offset();
  const ProfCut a = prof_cut();
  const double origin = now_s() + 0.005;
  const std::vector<Outcome> outs = drive_open_loop(server, f, exec, schedule, origin, mix(cfg.seed, 3), r);
  const ProfCut b = prof_cut();

  std::vector<double> lat_ms, lag_ms;
  // Five-second windows by scheduled arrival, about 500 requests each.
  std::vector<std::vector<double>> window_ms(static_cast<size_t>(std::ceil(cfg.seconds / 5.0)));
  double ok = 0, last = origin;
  for (const Outcome& o : outs) {
    last = std::max(last, o.done);
    lag_ms.push_back((o.sub0 - o.sched) * 1e3);
    if (!o.ok) continue;
    ++ok;
    lat_ms.push_back((o.done - o.sched) * 1e3);
    const size_t w = static_cast<size_t>((o.sched - origin) / 5.0);
    window_ms[std::min(w, window_ms.size() - 1)].push_back(lat_ms.back());
  }
  r.attempted = static_cast<int64_t>(outs.size());
  r.failed = r.attempted - static_cast<int64_t>(ok);
  const LatencySummary lag = summarize(lag_ms);
  if (lag.p50.value > kMaxGenLagMs) {
    note(r, "invalid: generator lag p50 " + std::to_string(lag.p50.value) + " ms at " +
                std::to_string(kTrickleRps) + " req/s");
  }
  const WindowedPercentiles lat = windowed_percentiles(window_ms, 100);
  end_to_end(r, setup_s, ok, lat.p50, lat.p90, ok / std::max(last - origin, 1e-9));
  r.info.emplace_back("latency_ms", json_summary(summarize(lat_ms)));
  r.info.emplace_back("latency_windows", std::to_string(lat.windows));
  r.info.emplace_back("rate_rps", sb::obs::json_num(kTrickleRps));
  r.info.emplace_back("gen_lag_ms", json_summary(lag));

  if (cfg.traced) {
    SpanLog spans;
    ServeTrace t;
    trace_requests(outs, trace_events("serve.exec"), offset, 1, spans, t);
    serving_layers(r, server, a, b, last - origin, t, lag_ms, static_cast<double>(outs.size()));
    probe_executors(r, f, spans);
    record_spans(r, spans, a, b);
  }
  server.shutdown();
  return r;
}

/// One ladder step's raw outcomes, measured over `arrivals` requests.
struct StepRun {
  double rate = 0, origin = 0, end = 0;
  std::vector<Outcome> outs;
};

struct StepStats {
  LadderStep step;
  LatencySummary lat, lag;
};

StepStats step_stats(const StepRun& s, int64_t max_batch) {
  std::vector<double> lat_ms, lag_ms, slo_ms;
  double ok = 0, last = s.end;
  int64_t backlog = 0;
  for (const Outcome& o : s.outs) {
    last = std::max(last, o.done);
    if (o.done > s.end) ++backlog;
    lag_ms.push_back((o.sub0 - o.sched) * 1e3);
    // A request that failed counts as missing the latency limit.
    slo_ms.push_back(o.ok ? (o.done - o.sched) * 1e3 : INFINITY);
    if (!o.ok) continue;
    ++ok;
    lat_ms.push_back((o.done - o.sched) * 1e3);
  }
  StepStats st;
  st.step.rate = s.rate;
  st.step.goodput = ok / (last - s.origin);
  st.step.fail_frac = 1.0 - ok / static_cast<double>(std::max<size_t>(s.outs.size(), 1));
  st.step.p99_ms = summarize(slo_ms).p99.value;
  // Within capacity, what is still open when arrivals stop is what came
  // in during the last SLO window plus up to two batches; more means the
  // queue grew during the step.
  st.step.backlog_growing = static_cast<double>(backlog) >
                            2.0 * static_cast<double>(max_batch) + s.rate * kSloP99Ms * 1e-3;
  st.lat = summarize(lat_ms);
  st.lag = summarize(lag_ms);
  return st;
}

RunResult serve_ladder(const RunConfig& cfg) {
  RunResult r = start(cfg);
  double setup_s = 0;
  const Fixture f = timed_fixture(cfg.seed, &setup_s);
  const Exec& exec = f.get("csr");
  const sb::serve::ServerOptions opts;
  sb::serve::InferenceServer server(exec.exec, opts);
  warm_server(server, f, opts.max_batch);

  // The other rungs get the same number of arrivals, so each percentile
  // has the same support at every rate; the passes share the run's
  // seconds.
  const size_t n_rates = kLadderRps.size();
  const auto weight = [&](size_t k) {
    return kLadderRps[k] == kLadderNamedRps || k + 1 == n_rates ? kReportedRungWeight : 1.0;
  };
  double pass_cost = 0;  // seconds per pass per unit of arrivals
  for (size_t k = 0; k < n_rates; ++k) {
    pass_cost += weight(k) / std::min(kLadderRps[k], kLadderCapacityRps);
  }
  const double arrivals = cfg.seconds / kLadderPasses / pass_cost;

  const double offset = prof_offset();
  const ProfCut a = prof_cut();
  const double t_start = now_s();
  std::vector<StepRun> runs;  // pass-major
  for (int pass = 0; pass < kLadderPasses; ++pass) {
    for (size_t k = 0; k < n_rates; ++k) {
      StepRun s;
      s.rate = kLadderRps[k];
      const uint64_t stream = 1000 * static_cast<uint64_t>(pass) + k;
      const double step_s = weight(k) * arrivals / s.rate;
      const std::vector<double> schedule = poisson_schedule(mix(cfg.seed, 100 + stream), s.rate, step_s);
      s.origin = now_s() + 0.002;
      s.end = s.origin + step_s;
      s.outs = drive_open_loop(server, f, exec, schedule, s.origin, mix(cfg.seed, 50000 + stream), r);
      runs.push_back(std::move(s));
    }
  }
  const double window_s = now_s() - t_start;
  const ProfCut b = prof_cut();

  // Per rate: the median over passes of each step statistic, so one VM
  // stall in one pass does not decide the knee.
  std::vector<LadderStep> steps;
  std::vector<double> lag_p50, named_p50, named_p90, top_goodput;
  std::ostringstream ladder;
  ladder << "[";
  int64_t ok_total = 0;
  for (size_t k = 0; k < n_rates; ++k) {
    std::vector<double> goodput, p99, fail, lag, grow;
    ladder << (k ? "," : "") << "{\"rate\":" << sb::obs::json_num(kLadderRps[k]) << ",\"passes\":[";
    for (int pass = 0; pass < kLadderPasses; ++pass) {
      const StepRun& run = runs[static_cast<size_t>(pass) * n_rates + k];
      const StepStats st = step_stats(run, opts.max_batch);
      goodput.push_back(st.step.goodput);
      p99.push_back(st.step.p99_ms);
      fail.push_back(st.step.fail_frac);
      lag.push_back(st.lag.p50.value);
      grow.push_back(st.step.backlog_growing ? 1.0 : 0.0);
      if (kLadderRps[k] == kLadderNamedRps) {
        named_p50.push_back(st.lat.p50.value);
        named_p90.push_back(st.lat.p90.value);
      }
      if (k + 1 == n_rates) top_goodput.push_back(st.step.goodput);
      r.attempted += static_cast<int64_t>(run.outs.size());
      for (const Outcome& o : run.outs) ok_total += o.ok ? 1 : 0;
      ladder << (pass ? "," : "") << "{\"goodput\":" << sb::obs::json_num(st.step.goodput)
             << ",\"p99_ms_with_failures\":" << sb::obs::json_num(st.step.p99_ms)
             << ",\"fail_frac\":" << sb::obs::json_num(st.step.fail_frac)
             << ",\"backlog_growing\":" << (st.step.backlog_growing ? "true" : "false")
             << ",\"latency_ms\":" << json_summary(st.lat) << ",\"gen_lag_ms\":" << json_summary(st.lag)
             << "}";
    }
    LadderStep s;
    s.rate = kLadderRps[k];
    s.goodput = median(goodput);
    s.p99_ms = median(p99);
    s.fail_frac = median(fail);
    s.backlog_growing = median(grow) > 0.5;
    steps.push_back(s);
    lag_p50.push_back(median(lag));
    ladder << "],\"meets_slo\":" << (meets_slo(s) ? "true" : "false") << "}";
  }
  ladder << "]";
  r.failed = r.attempted - ok_total;

  const int best = max_step_at_slo(steps);
  for (int k = 0; k <= best; ++k) {
    if (lag_p50[static_cast<size_t>(k)] > kMaxGenLagMs) {
      note(r, "invalid: generator lag p50 " + std::to_string(lag_p50[static_cast<size_t>(k)]) +
                  " ms at " + std::to_string(kLadderRps[static_cast<size_t>(k)]) +
                  " req/s, a rate that meets the SLO");
    }
  }
  // The end-to-end numbers are medians over passes: latency at the named
  // rate and goodput at the top rung (capacity). max_rps_at_slo goes to
  // the details only: on a shared host it moved by more than a quarter
  // between runs of the same code.
  end_to_end(r, setup_s, static_cast<double>(ok_total), median(named_p50), median(named_p90),
             median(top_goodput));
  r.info.emplace_back("ladder", ladder.str());
  r.info.emplace_back("arrivals_per_step", sb::obs::json_num(std::floor(arrivals)));
  r.info.emplace_back("named_rate_rps", sb::obs::json_num(kLadderNamedRps));
  r.info.emplace_back("max_rps_at_slo_nominal",
                      sb::obs::json_num(best >= 0 ? kLadderRps[static_cast<size_t>(best)] : 0.0));
  r.info.emplace_back("max_rps_at_slo",
                      sb::obs::json_num(best >= 0 ? steps[static_cast<size_t>(best)].goodput : 0.0));

  if (cfg.traced) {
    SpanLog spans;
    ServeTrace t;
    const std::vector<TraceEvent> execs = trace_events("serve.exec");
    std::vector<double> all_lag_ms;
    int64_t first_id = 1;
    for (const StepRun& run : runs) {
      trace_requests(run.outs, execs, offset, first_id, spans, t);
      first_id += static_cast<int64_t>(run.outs.size());
      for (const Outcome& o : run.outs) all_lag_ms.push_back((o.sub0 - o.sched) * 1e3);
    }
    serving_layers(r, server, a, b, window_s, t, all_lag_ms, static_cast<double>(r.attempted));
    probe_executors(r, f, spans);
    record_spans(r, spans, a, b);
  }
  server.shutdown();
  return r;
}

// ---- offline batch-64 ----

RunResult offline_b64(const RunConfig& cfg) {
  RunResult r = start(cfg);
  double setup_s = 0;
  const Fixture f = timed_fixture(cfg.seed, &setup_s);
  constexpr int kBatch = 64;
  constexpr int kBatches = 4;
  std::vector<std::vector<int>> samples(kBatches);
  std::vector<Tensor> batches;
  uint64_t state = mix(cfg.seed, 4);
  for (std::vector<int>& s : samples) {
    for (int i = 0; i < kBatch; ++i) s.push_back(static_cast<int>(splitmix64(state) % kInputPool));
    batches.push_back(f.batch(s));
  }
  for (const Exec& e : f.execs) e.exec.forward(batches.front());  // warm

  SpanLog spans;
  const ProfCut a = prof_cut();
  // The unit of work is a round: one call to each executor. Its time
  // moves with every executor's kernels, where the median of mixed
  // calls would follow only the middle one.
  std::map<std::string, std::vector<double>> call_ms;
  std::vector<double> round_ms;
  // Five-second windows of rounds, about 180 rounds each.
  std::vector<std::vector<double>> window_ms(static_cast<size_t>(std::ceil(cfg.seconds / 5.0)));
  std::vector<double> round_rate;  // verified images per second, per round
  double ok_rows = 0;
  const double t_start = now_s();
  int64_t call = 0;
  for (size_t round = 0; now_s() - t_start < cfg.seconds; ++round) {
    const double round_start = now_s();
    double round_ok = 0;
    // Rotate the executor order each round so drift hits all three alike.
    for (size_t j = 0; j < f.execs.size(); ++j) {
      const Exec& e = f.execs[(round + j) % f.execs.size()];
      const size_t bi = round % kBatches;
      const double t0 = now_s();
      const Tensor y = e.exec.forward(batches[bi]);
      const double t1 = now_s();
      ++call;
      if (cfg.traced) spans.add("forward", 0, call, t0, t1);
      call_ms[e.name].push_back((t1 - t0) * 1e3);
      const int64_t width = y.numel() / kBatch;
      double ok = 0;
      for (int i = 0; i < kBatch; ++i) {
        ++r.attempted;
        if (row_matches(e, samples[bi][static_cast<size_t>(i)], y.data() + i * width)) {
          ++ok;
        } else {
          note(r, e.name + " batch-64 row differs from its batch-1 reference");
        }
      }
      round_ok += ok;
    }
    ok_rows += round_ok;
    const double round_end = now_s();
    round_ms.push_back((round_end - round_start) * 1e3);
    const size_t w = static_cast<size_t>((round_end - t_start) / 5.0);
    window_ms[std::min(w, window_ms.size() - 1)].push_back(round_ms.back());
    // A median over rounds: one slow stretch of a shared host moves it
    // less than it moves the mean.
    round_rate.push_back(round_ok / (round_end - round_start));
  }
  const double window_s = now_s() - t_start;
  const ProfCut b = prof_cut();
  r.failed = r.attempted - static_cast<int64_t>(ok_rows);
  // A window with fewer than 50 rounds (a short run's last) is skipped.
  const WindowedPercentiles lat = windowed_percentiles(window_ms, 50);
  end_to_end(r, setup_s, ok_rows, lat.p50, lat.p90, median(round_rate));
  r.info.emplace_back("latency_ms", json_summary(summarize(round_ms)));
  r.info.emplace_back("latency_windows", std::to_string(lat.windows));

  std::ostringstream per;
  per << "{";
  for (size_t j = 0; j < kModes.size(); ++j) {
    const std::vector<double>& ms = call_ms[kModes[j]];
    per << (j ? "," : "") << sb::obs::json_str(kModes[j]) << ":{\"img_per_s\":"
        << sb::obs::json_num(kBatch * 1e3 / median(ms)) << ",\"call_ms\":" << json_summary(summarize(ms))
        << "}";
  }
  per << "}";
  r.info.emplace_back("executors", per.str());

  if (cfg.traced) {
    for (const std::string& m : kModes) {
      set_layer(r, "serve.executor." + m + ".img_per_s", kBatch * 1e3 / median(call_ms[m]));
    }
    layer_counters(r, a, b, static_cast<double>(call), static_cast<double>(call));
    set_layer(r, "serve.executor.busy_frac", span_delta(a, b, "serve.exec").total_s / window_s);
    probe_executors(r, f, spans);
    record_spans(r, spans, a, b);
  }
  return r;
}

// ---- sweep ----

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  for (std::string cell; std::getline(ss, cell, ',');) out.push_back(cell);
  return out;
}

/// experiment_csv_row without its wall-clock columns.
std::string stable_columns(const sb::ExperimentResult& row) {
  const std::vector<std::string> header = split_csv(sb::experiment_csv_header());
  const std::vector<std::string> cells = split_csv(sb::experiment_csv_row(row));
  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    const bool timing = i < header.size() &&
                        std::find(kTimingColumns.begin(), kTimingColumns.end(), header[i]) !=
                            kTimingColumns.end();
    if (!timing) out += cells[i] + ",";
  }
  return out;
}

RunResult sweep(const RunConfig& cfg) {
  namespace fs = std::filesystem;
  RunResult r = start(cfg);
  sb::ExperimentConfig base;
  base.dataset = "synth-cifar10";
  base.data_seed = mix(cfg.seed, 5) | 1;
  base.arch = "resnet-20";
  base.pretrain_tag = "perfbench-10ep";
  base.pretrain.epochs = 10;
  base.finetune.epochs = 2;
  const std::vector<uint64_t> run_seeds = {mix(cfg.seed, 6) % 1000000 + 1};

  // Set-up, repeated into fresh caches: synthesize the dataset, pretrain.
  std::vector<double> setup, build, pretrain;
  std::unique_ptr<sb::ExperimentRunner> runner;
  std::string cache;
  for (int i = 0; i < kSweepSetups; ++i) {
    cache = (fs::path(cfg.work_dir) / ("cache" + std::to_string(i))).string();
    const double t0 = now_s();
    runner = std::make_unique<sb::ExperimentRunner>(cache);
    runner->dataset(base.dataset, base.data_seed);
    const double t1 = now_s();
    runner->pretrained(base);
    const double t2 = now_s();
    setup.push_back(t2 - t0);
    build.push_back(t1 - t0);
    pretrain.push_back(t2 - t1);
  }
  const int64_t train_size = runner->dataset(base.dataset, base.data_seed).train.size();

  SpanLog spans;
  const double offset = prof_offset();
  const ProfCut a = prof_cut();
  std::vector<std::string> first_grid;
  std::vector<sb::ExperimentResult> rows;
  std::vector<double> lat_ms;
  std::vector<std::vector<double>> grid_lat_ms;
  std::vector<std::pair<double, double>> grid_spans;
  std::vector<double> grid_rate;  // verified rows per second, per grid
  double ok_rows = 0;
  const double t_start = now_s();
  for (int grid = 0; grid == 0 || now_s() - t_start < cfg.seconds; ++grid) {
    // A fresh result cache each grid: a replay would read as a speedup.
    fs::remove_all(fs::path(cache) / "results");
    fs::remove_all(fs::path(cache) / "ckpt");
    sb::SweepSummary summary;
    const double g0 = now_s();
    const std::vector<sb::ExperimentResult> results =
        sb::run_sweep(*runner, base, kSweepStrategies, kSweepCompressions, run_seeds, {}, &summary);
    grid_spans.emplace_back(g0, now_s());
    if (summary.cache_hits != 0) note(r, "sweep replayed rows from the result cache");
    double grid_ok = 0;
    grid_lat_ms.emplace_back();
    for (size_t i = 0; i < results.size(); ++i) {
      const sb::ExperimentResult& row = results[i];
      ++r.attempted;
      const std::string stable = stable_columns(row);
      if (grid == 0) first_grid.push_back(stable);
      bool ok = !row.failed && !row.from_cache && summary.cache_hits == 0;
      if (row.failed) note(r, "sweep row failed: " + row.error);
      const double target = row.config.target_compression;
      const double reached = row.compression / target;
      const bool channel =
          sb::strategy_from_name(row.config.strategy).structure == sb::Structure::Channel;
      if (channel ? reached < kChannelMinRatio || reached > 1.0 + kUnstructuredTol
                  : std::fabs(reached - 1.0) > kUnstructuredTol) {
        ok = false;
        note(r, "sweep row compression " + std::to_string(row.compression) + " vs target " +
                    std::to_string(target));
      }
      if (i >= first_grid.size() || first_grid[i] != stable) {
        ok = false;
        note(r, "sweep row differs from the first grid: " + stable);
      }
      if (ok) ++grid_ok;
      lat_ms.push_back(row.seconds * 1e3);
      grid_lat_ms.back().push_back(row.seconds * 1e3);
      rows.push_back(row);
    }
    ok_rows += grid_ok;
    grid_rate.push_back(grid_ok / (grid_spans.back().second - grid_spans.back().first));
  }
  const double window_s = now_s() - t_start;
  const ProfCut b = prof_cut();
  r.failed = r.attempted - static_cast<int64_t>(ok_rows);
  const WindowedPercentiles lat = windowed_percentiles(grid_lat_ms, 1);
  end_to_end(r, median(setup), ok_rows, lat.p50, lat.p90, median(grid_rate));
  r.info.emplace_back("latency_ms", json_summary(summarize(lat_ms)));
  r.info.emplace_back("grids", std::to_string(grid_spans.size()));
  r.info.emplace_back("experiments_per_min", sb::obs::json_num(60.0 * ok_rows / window_s));

  double prune = 0, finetune = 0, eval = 0, ft_samples = 0;
  for (const sb::ExperimentResult& row : rows) {
    prune += row.phases.prune;
    finetune += row.phases.finetune;
    eval += row.phases.eval;
    ft_samples += static_cast<double>(row.finetune_epochs) * static_cast<double>(train_size);
  }
  r.info.emplace_back("finetune_samples_per_s", sb::obs::json_num(ft_samples / finetune));

  if (cfg.traced) {
    const double n = static_cast<double>(rows.size());
    set_layer(r, "core.experiment.prune_s", prune / n);
    set_layer(r, "core.experiment.finetune_s", finetune / n);
    set_layer(r, "core.experiment.eval_s", eval / n);
    set_layer(r, "core.train.finetune_samples_per_s", ft_samples / finetune);
    set_layer(r, "core.pruner.score_s", span_delta(a, b, "score").total_s / n);
    set_layer(r, "metrics.evaluate_s", span_delta(a, b, "evaluate").total_s / n);
    set_layer(r, "core.pretrained.pretrain_s", median(pretrain));
    set_layer(r, "data.synthetic.build_s", median(build));
    std::vector<double> epochs;
    for (const TraceEvent& e : trace_events("epoch")) {
      if (e.t0 - offset >= t_start) epochs.push_back(e.dur);
    }
    set_layer(r, "core.train.epoch_s_p50", median(epochs));
    layer_counters(r, a, b, n, 0);
    // One run_sweep span per grid, with a row span per experiment.
    const std::vector<TraceEvent> runs = trace_events("experiment.run");
    int64_t row_id = 0;
    for (const auto& [g0, g1] : grid_spans) {
      const int64_t parent = spans.add("run_sweep", 0, 0, g0, g1);
      for (const TraceEvent& e : runs) {
        if (e.t0 - offset >= g0 && e.t1() - offset <= g1) {
          spans.add("row", parent, ++row_id, e.t0 - offset, e.t1() - offset);
        }
      }
    }
    record_spans(r, spans, a, b);
  }
  return r;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "sweep") return sweep(config);
  if (config.workload == "serve-trickle") return serve_trickle(config);
  if (config.workload == "serve-ladder") return serve_ladder(config);
  if (config.workload == "offline-b64") return offline_b64(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
