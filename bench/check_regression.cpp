// Perf-baseline tooling for the BENCH_perf.json workflow.
//
//   check_regression emit <gbench.json>... <out.json>
//       Post-processes google-benchmark --benchmark_format=json output
//       (one or more files) into the compact committed-baseline schema:
//       {schema, simd, benchmarks: [{name, ns, items_per_sec, reps, iqr_ns}]}.
//       Repeated iteration rows of one name (--benchmark_repetitions, or
//       the same benchmark in several files) fold into their median, with
//       the row count in `reps` and the interquartile range in `iqr_ns`.
//       Benchmarks that called SkipWithError (e.g. BM_GemmKernel's
//       avx512 entry on a host without AVX-512) are recorded as
//       {name, skipped: true} instead of fake timings.
//
//   check_regression check <baseline.json> <current.json> [--tolerance F]
//       Compares a fresh run (same compact schema) against the committed
//       baseline. A benchmark regresses when its time grows by more than
//       the tolerance band (default 0.35 = 35%); a benchmark missing
//       from the current run also fails, so silently compiled-out
//       kernels surface. Entries skipped on either side are reported as
//       a notice, never a failure — an AVX2-only host checking a
//       baseline emitted on an AVX-512 box must still pass. Also
//       enforces the multithread scaling gate: the fused conv grid must
//       give BM_ConvForwardMT/64 a >= 1.6x threads-4 speedup over
//       threads-1, and BM_ConvForwardMT/1 at threads-4 may be no slower
//       than at threads-1 beyond the default 35% band. Both read whatever
//       `ns` holds, the median when the run was repeated, and are skipped
//       with a logged reason on hosts with fewer than 4 cores (the
//       ratio is noise there).
//       Both files must carry the compact schema; a file that does not,
//       or an entry neither skipped nor timed with a finite ns > 0, is
//       rejected with its name.
//       Exit code 0 = within band, 1 = regression, 2 = bad input.
//
// Typical flow (also run by CI in quick mode, with the mt-gate's
// BM_ConvForwardMT in a second run of --benchmark_repetitions=5):
//   ./micro_primitives --benchmark_format=json > /tmp/raw.json
//   ./check_regression emit /tmp/raw.json /tmp/current.json
//   ./check_regression check BENCH_perf.json /tmp/current.json
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Minimal strict JSON parser (this tool reads benchmark output; the main
// library only ever writes JSON).
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.boolean = b;
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'b': v.string += '\b'; break;
          case 'f': v.string += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            v.string += '?';
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        v.string += c;
      }
    }
  }

  JsonValue number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

JsonValue parse_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  return JsonParser(buf.str()).parse();
}

// ---------------------------------------------------------------------

// The compact schema `emit` writes and `check` reads.
constexpr const char* kPerfSchema = "shrinkbench.bench_perf/v1";

struct Entry {
  std::string name;
  double ns = 0.0;             // median over the folded rows
  double items_per_sec = 0.0;  // 0 when the bench reports no items
  bool skipped = false;        // bench ran SkipWithError (no timings)
  int64_t reps = 1;            // iteration rows folded into ns
  double iqr_ns = 0.0;         // their interquartile range
};

double to_ns(double t, const std::string& unit) {
  if (unit == "ns" || unit.empty()) return t;
  if (unit == "us") return t * 1e3;
  if (unit == "ms") return t * 1e6;
  if (unit == "s") return t * 1e9;
  throw std::runtime_error("unknown time_unit '" + unit + "'");
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Quantile q of sorted values, interpolating between the nearest two.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

int emit(const std::vector<std::string>& in_paths, const std::string& out_path) {
  std::string simd = "unknown";
  // Iteration rows by name, names in first-seen order.
  struct Rows {
    std::vector<double> ns, items;
    bool skipped = false;
  };
  std::vector<std::string> order;
  std::map<std::string, Rows> rows;
  for (const std::string& in_path : in_paths) {
    const JsonValue root = parse_file(in_path);
    if (root.has("context") && root.at("context").has("simd")) {
      simd = root.at("context").at("simd").string;
    }
    for (const JsonValue& b : root.at("benchmarks").array) {
      // Skip aggregate rows (mean/median/stddev of repetition runs).
      if (b.has("run_type") && b.at("run_type").string != "iteration") continue;
      const std::string name = b.at("name").string;
      if (rows.find(name) == rows.end()) order.push_back(name);
      Rows& r = rows[name];
      if (b.has("error_occurred") && b.at("error_occurred").boolean) {
        r.skipped = true;  // SkipWithError: record the skip, not fake timings
        continue;
      }
      r.ns.push_back(
          to_ns(b.at("real_time").number, b.has("time_unit") ? b.at("time_unit").string : "ns"));
      r.items.push_back(b.has("items_per_second") ? b.at("items_per_second").number : 0.0);
    }
  }
  std::vector<Entry> entries;
  for (const std::string& name : order) {
    Rows& r = rows[name];
    Entry e;
    e.name = name;
    e.skipped = r.skipped;
    if (!e.skipped) {
      std::sort(r.ns.begin(), r.ns.end());
      std::sort(r.items.begin(), r.items.end());
      e.ns = quantile(r.ns, 0.5);
      e.items_per_sec = quantile(r.items, 0.5);
      e.reps = static_cast<int64_t>(r.ns.size());
      e.iqr_ns = quantile(r.ns, 0.75) - quantile(r.ns, 0.25);
      if (e.reps > 1) {
        std::printf("folded %s: %lld reps, median %.0f ns, iqr %.0f ns\n", name.c_str(),
                    static_cast<long long>(e.reps), e.ns, e.iqr_ns);
      }
    }
    entries.push_back(std::move(e));
  }
  std::ofstream os(out_path);
  if (!os) throw std::runtime_error("cannot write " + out_path);
  os << "{\n  \"schema\": \"" << kPerfSchema << "\",\n";
  os << "  \"simd\": \"" << simd << "\",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.skipped) {
      os << "    {\"name\": \"" << e.name << "\", \"skipped\": true}";
    } else {
      os << "    {\"name\": \"" << e.name << "\", \"ns\": " << json_num(e.ns)
         << ", \"items_per_sec\": " << json_num(e.items_per_sec) << ", \"reps\": " << e.reps
         << ", \"iqr_ns\": " << json_num(e.iqr_ns) << "}";
    }
    os << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::printf("wrote %s (%zu benchmarks, simd=%s)\n", out_path.c_str(), entries.size(),
              simd.c_str());
  return 0;
}

// Reads a file `emit` wrote. Anything else is rejected (exit 2), never
// compared: raw google-benchmark JSON or an entry without a finite
// positive `ns` would otherwise read as 0 ns and pass every band.
std::map<std::string, Entry> load_perf(const std::string& path) {
  const JsonValue root = parse_file(path);
  if (!root.has("schema") || root.at("schema").string != kPerfSchema) {
    throw std::runtime_error(path + ": schema is not \"" + kPerfSchema +
                             "\" (raw google-benchmark output must go through `emit` first)");
  }
  if (!root.has("benchmarks") || root.at("benchmarks").kind != JsonValue::Kind::Array) {
    throw std::runtime_error(path + ": no 'benchmarks' array");
  }
  std::map<std::string, Entry> out;
  for (const JsonValue& b : root.at("benchmarks").array) {
    Entry e;
    if (!b.has("name") || b.at("name").kind != JsonValue::Kind::String) {
      throw std::runtime_error(path + ": benchmark entry without a name");
    }
    e.name = b.at("name").string;
    if (b.has("skipped") && b.at("skipped").boolean) {
      e.skipped = true;
    } else {
      const bool timed = b.has("ns") && b.at("ns").kind == JsonValue::Kind::Number &&
                         std::isfinite(b.at("ns").number) && b.at("ns").number > 0.0;
      if (!timed) {
        throw std::runtime_error(path + ": " + e.name +
                                 " has no finite positive 'ns' and is not marked skipped");
      }
      e.ns = b.at("ns").number;
    }
    if (b.has("items_per_sec")) e.items_per_sec = b.at("items_per_sec").number;
    if (b.has("reps")) e.reps = static_cast<int64_t>(b.at("reps").number);
    out[e.name] = std::move(e);
  }
  return out;
}

// Default regression band of `check` (--tolerance overrides it for the
// baseline comparison; the batch-1 mt-gate always uses this value).
constexpr double kDefaultTolerance = 0.35;

// Multithread scaling gate on the current run, BM_ConvForwardMT at
// threads 4 vs threads 1:
//   * batch 64: the fused (sample × out-channel-tile) conv grid must turn
//     pool threads into wall-clock speedup, >= kMinConvSpeedup;
//   * batch 1: the grid's work floor must keep a conv too small to pay
//     for a pool handoff inline, so threads-4 may be no slower than
//     threads-1 beyond the kDefaultTolerance band.
// On hosts with fewer than 4 hardware cores the threads-4 run just
// time-slices one core, so the gate logs why it is skipped instead of
// failing.
constexpr double kMinConvSpeedup = 1.6;

int mt_scaling_gate(const std::map<std::string, Entry>& current) {
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    std::printf("mt-gate  skipped: host has %u hardware core(s) (< 4); threads-4 scaling is "
                "unmeasurable here\n",
                cores);
    return 0;
  }
  int failures = 0;
  for (const int batch : {64, 1}) {
    const std::string prefix = "BM_ConvForwardMT/" + std::to_string(batch);
    const std::string t1 = prefix + "/1/real_time";
    const std::string t4 = prefix + "/4/real_time";
    const auto i1 = current.find(t1);
    const auto i4 = current.find(t4);
    if (i1 == current.end() || i4 == current.end() || i1->second.skipped ||
        i4->second.skipped) {
      std::printf("mt-gate  skipped: %s / %s not present in the current run\n", t1.c_str(),
                  t4.c_str());
      continue;
    }
    const double speedup = i4->second.ns > 0.0 ? i1->second.ns / i4->second.ns : 0.0;
    const double required = batch == 1 ? 1.0 / (1.0 + kDefaultTolerance) : kMinConvSpeedup;
    const bool bad = speedup < required;
    std::printf("%s mt-gate: batch-%d conv forward threads-4 speedup %.2fx (%s %.2fx; "
                "reps %lld/%lld)\n",
                bad ? "REGRESS " : "ok      ", batch, speedup, bad ? "<" : ">=", required,
                static_cast<long long>(i1->second.reps), static_cast<long long>(i4->second.reps));
    if (bad) ++failures;
  }
  return failures;
}

int check(const std::string& base_path, const std::string& cur_path, double tolerance) {
  const auto baseline = load_perf(base_path);
  const auto current = load_perf(cur_path);
  int regressions = 0;
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      if (base.skipped) {
        std::printf("skipped  %-32s (skipped in baseline, absent from current run)\n",
                    name.c_str());
        continue;
      }
      std::printf("MISSING  %-32s (in baseline, absent from current run)\n", name.c_str());
      ++regressions;
      continue;
    }
    if (base.skipped || it->second.skipped) {
      // A tier unavailable on this host (or on the baseline host) is a
      // notice, not a regression: hosts of different ISA levels share
      // one committed baseline.
      std::printf("skipped  %-32s (%s)\n", name.c_str(),
                  it->second.skipped ? "skipped in current run" : "skipped in baseline");
      continue;
    }
    const double ratio = base.ns > 0.0 ? it->second.ns / base.ns : 1.0;
    const bool bad = ratio > 1.0 + tolerance;
    std::printf("%s %-32s %12.0f ns -> %12.0f ns  (%+6.1f%%)\n", bad ? "REGRESS " : "ok      ",
                name.c_str(), base.ns, it->second.ns, (ratio - 1.0) * 100.0);
    if (bad) ++regressions;
  }
  for (const auto& [name, cur] : current) {
    if (baseline.find(name) == baseline.end()) {
      std::printf("new      %-32s %12.0f ns (not in baseline)\n", name.c_str(), cur.ns);
    }
  }
  regressions += mt_scaling_gate(current);
  if (regressions > 0) {
    std::printf("FAIL: %d benchmark(s) regressed beyond the %.0f%% tolerance band\n", regressions,
                tolerance * 100.0);
    return 1;
  }
  std::printf("OK: all %zu baseline benchmarks within the %.0f%% tolerance band\n",
              baseline.size(), tolerance * 100.0);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  check_regression emit <gbench.json>... <out.json>\n"
               "  check_regression check <baseline.json> <current.json> [--tolerance F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 4 && std::strcmp(argv[1], "emit") == 0) {
      return emit(std::vector<std::string>(argv + 2, argv + argc - 1), argv[argc - 1]);
    }
    if (argc >= 4 && std::strcmp(argv[1], "check") == 0) {
      double tolerance = kDefaultTolerance;
      for (int i = 4; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0) tolerance = std::atof(argv[i + 1]);
      }
      return check(argv[2], argv[3], tolerance);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "check_regression: %s\n", e.what());
    return 2;
  }
}
