// perfbench: runs one AutoCE benchmark workload and prints its report
// as one JSON object on stdout. run.py builds this binary, chooses the
// thread counts, and turns the report into the benchmark's result line.
//
//   perfbench --workload recommend_cold|subplan_serve|build_adapt
//             --seed N --seconds S --trace 0|1 --threads T
//             --alt-threads A --workdir DIR [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/manifest.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i].second;
    out += (i ? "," : "") + Quote(metrics[i].first) + ":{\"value\":" +
           Num(m.value) + ",\"unit\":" + Quote(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

std::string ToJson(const Options& opts, const Report& r) {
  namespace simd = autoce::util::simd;
  std::string out = "{\"workload\":" + Quote(opts.workload) +
                    ",\"seed\":" + std::to_string(opts.seed) +
                    ",\"trace\":" + (opts.trace ? "1" : "0");
  out += ",\"build\":{\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
         ",\"git_describe\":" + Quote(autoce::obs::GitDescribe()) +
         ",\"simd_compiled\":" + Quote(simd::LevelName(simd::CompiledLevel())) +
         ",\"simd_selected\":" + Quote(simd::LevelName(simd::ActiveLevel())) +
         ",\"threads\":" + std::to_string(opts.threads) +
         ",\"alt_threads\":" + std::to_string(opts.alt_threads) +
         ",\"pool_threads\":" +
         std::to_string(autoce::util::GlobalParallelism()) + "}";
  out += ",\"setup_seconds\":[";
  for (size_t i = 0; i < r.setup_seconds.size(); ++i) {
    out += (i ? "," : "") + Num(r.setup_seconds[i]);
  }
  out += "],\"ops\":{";
  size_t i = 0;
  for (const auto& [op, c] : r.ops) {
    out += (i++ ? "," : "") + Quote(op) + ":{\"attempted\":" +
           std::to_string(c.attempted) + ",\"failed\":" +
           std::to_string(c.failed) + "}";
  }
  out += "},\"digests\":{";
  for (size_t k = 0; k < r.digests.size(); ++k) {
    out += (k ? "," : "") + Quote(r.digests[k].first) + ":" +
           Quote(r.digests[k].second);
  }
  out += "},\"gate_errors\":[";
  for (size_t k = 0; k < r.gate_errors.size(); ++k) {
    out += (k ? "," : "") + Quote(r.gate_errors[k]);
  }
  out += "],\"end_to_end\":" + Metrics(r.end_to_end) +
         ",\"named\":" + Metrics(r.named) +
         ",\"per_layer\":" + Metrics(r.per_layer) + "}";
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--threads") {
      opts.threads = std::atoi(value.c_str());
    } else if (flag == "--alt-threads") {
      opts.alt_threads = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      opts.workdir = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (opts.threads < 1 || opts.alt_threads < 1) {
    return Usage("--threads and --alt-threads must be >= 1");
  }
  if (!(opts.seconds > 0)) return Usage("--seconds must be > 0");

  Report report;
  if (opts.workload == "recommend_cold") {
    RunRecommendCold(opts, &report);
  } else if (opts.workload == "subplan_serve") {
    RunSubplanServe(opts, &report);
  } else if (opts.workload == "build_adapt") {
    RunBuildAdapt(opts, &report);
  } else {
    return Usage(("unknown workload " + opts.workload).c_str());
  }
  report.AddEndToEnd("setup_s", Median(report.setup_seconds), "s",
                     static_cast<int64_t>(report.setup_seconds.size()));
  if (opts.trace && !opts.trace_out.empty() &&
      !SpanRecorder::Instance().WriteChromeTrace(opts.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opts.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", ToJson(opts, report).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
