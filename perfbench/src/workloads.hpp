// The benchmark's four workloads (see ../README.md for why each exists).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// SB_PROF/SB_TRACE are on: record spans and compute per-layer metrics.
  bool traced = false;
  /// Private scratch directory for this run (result caches, checkpoints).
  std::string work_dir;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;  // failed, refused or wrong outputs and failed sweep rows
  /// Verification mismatches and validity violations (first few kept).
  std::vector<std::string> errors;
  std::vector<Metric> metrics;  // end to end
  std::vector<Metric> layers;   // per layer; filled on traced runs
  /// Extra provenance and sample-count details, as (key, JSON text).
  std::vector<std::pair<std::string, std::string>> info;
};

/// Runs one workload end to end: set-up, warm-up, the timed window and
/// verification. Throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
