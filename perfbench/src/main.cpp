// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload NAME --seed N --seconds S --work-dir DIR
//
// Traced mode is SB_PROF=1 with SB_TRACE set, exactly as for any other
// binary of the repo; per-layer metrics are computed only then. The last
// line of stdout is one JSON object: verification counts, end-to-end
// metrics, per-layer metrics (traced) and provenance. A human-readable
// summary goes to stderr. Exit code 0 only when every output verified
// and the run is valid. ../run.py is the intended entry point: it builds
// this binary, fixes the environment and runs the workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "tensor/simd.hpp"
#include "tensor/threadpool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

namespace sb = shrinkbench;

/// SB_* switches a workload process may carry; any other one (inherited
/// overload, fault, fleet or kernel knobs) would change what is measured.
bool allowed_env(const std::string& name) {
  return name == "SB_THREADS" || name == "SB_PROF" || name == "SB_TRACE" ||
         name == "SB_LOG_LEVEL";
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << sb::obs::json_str(metrics[i].name)
       << ":{\"value\":" << sb::obs::json_num(metrics[i].value)
       << ",\"unit\":" << sb::obs::json_str(metrics[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(value);
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || cfg.seconds <= 0) return usage();
  for (char** e = environ; *e; ++e) {
    const std::string entry = *e;
    const std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("SB_", 0) == 0 && !allowed_env(name)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", name.c_str());
      return 2;
    }
  }
  cfg.traced = sb::obs::profiling_enabled();

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& err : r.errors) std::fprintf(stderr, "perfbench: FAIL %s\n", err.c_str());
  std::fprintf(stderr, "%s seed=%llu attempted=%lld failed=%lld%s\n", cfg.workload.c_str(),
               static_cast<unsigned long long>(cfg.seed), static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed), cfg.traced ? " (traced)" : "");
  for (const perfbench::Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = r.errors.empty() && r.failed == 0 && r.attempted > 0;
  std::ostringstream info;
  info << "{\"host\":{\"cpu_model\":" << sb::obs::json_str(sb::obs::cpu_model())
       << ",\"nproc\":" << sb::obs::cpu_cores()
       << ",\"simd\":" << sb::obs::json_str(sb::simd::level_name(sb::simd::active_level()))
       << ",\"sb_threads\":" << sb::ThreadPool::instance().threads()
       << ",\"git\":" << sb::obs::json_str(sb::obs::git_describe()) << "}";
  for (const auto& [key, json] : r.info) info << "," << sb::obs::json_str(key) << ":" << json;
  info << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) info << (i ? "," : "") << sb::obs::json_str(r.errors[i]);
  info << "]}";

  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s,\"per_layer\":%s,"
              "\"info\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics_json(r.metrics).c_str(),
              metrics_json(r.layers).c_str(), info.str().c_str());
  return correct ? 0 : 1;
}
