// Shared pieces of the AutoCE benchmark program: options, the span
// recorder behind the traced run, latency statistics, determinism
// digests and the report every workload fills in.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "advisor/autoce.h"
#include "ce/testbed.h"
#include "data/generator.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for snapshot stores and other run-local files; removed
  /// by the caller (run.py) after the run.
  std::string workdir = ".";
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
  /// Pool size of the measured phase and of the second thread count
  /// the determinism gate replays the gate prefix at.
  int threads = 1;
  int alt_threads = 1;
};

/// One reported number with its unit and sample count.
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Attempted/failed counts of one operation type.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Everything one workload run reports.
struct Report {
  std::vector<std::pair<std::string, Metric>> end_to_end;
  std::vector<std::pair<std::string, Metric>> per_layer;
  /// The workload's metrics under the workload-specific names the
  /// documentation uses (recommend_ms_p50, build_s, ...).
  std::vector<std::pair<std::string, Metric>> named;
  std::map<std::string, OpCount> ops;
  std::vector<std::pair<std::string, std::string>> digests;
  /// Correctness-gate failures (digest or row-count mismatches).
  std::vector<std::string> gate_errors;
  std::vector<double> setup_seconds;  ///< every measured set-up

  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit, int64_t samples);
  void AddLayer(const std::string& name, double value,
                const std::string& unit, int64_t samples);
  void AddNamed(const std::string& name, double value,
                const std::string& unit, int64_t samples);
  void CountOp(const std::string& op, bool failed);
  void AddDigest(const std::string& name, uint64_t value);
  /// Records a gate failure unless `a == b`.
  void ExpectSame(const std::string& what, uint64_t a, uint64_t b);
};

/// FNV-1a over raw bytes: the cross-thread, cross-run identity witness.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  void Byte(uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Mixes (seed, stream, index) into an independent generator seed, so
/// every input of a run is a pure function of `--seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// Monotonic seconds since an arbitrary epoch.
double NowSeconds();

/// p-th percentile (nearest-rank with interpolation); 0 for empty input.
double Pct(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// \brief In-memory span recorder owned by the benchmark (not the
/// program's AUTOCE_TRACE sink).
///
/// Spans are placed around the public calls the benchmark makes into
/// each layer. Each span keeps its name, start, end, parent (the span
/// open on the same thread when it began) and request id, plus an
/// optional amount of work (e.g. cells scanned). Recording is off
/// unless enabled; a disabled Scope costs one branch.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
    double work = 0.0;
  };

  static SpanRecorder& Instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Request id stamped on spans begun by this thread from now on.
  void set_request(uint64_t id);

  /// RAII span. `name` must be a string literal (it is stored as is).
  class Scope {
   public:
    explicit Scope(const char* name, double work = 0.0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
  };

  std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace (chrome://tracing) file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int32_t Begin(const char* name, double work, int32_t parent);
  void End(int32_t index);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Per-span derived numbers of a recorded trace.
class TraceAnalysis {
 public:
  explicit TraceAnalysis(std::vector<SpanRecorder::Span> spans);

  /// Durations (seconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times (seconds: duration minus child spans) of spans named
  /// `name`.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Total work recorded on spans named `name`.
  double Work(const std::string& name) const;
  /// Sum of self time per layer (the span-name prefix before the first
  /// '.'; the root span "op" is reported as "uncovered").
  std::map<std::string, double> LayerSelfSeconds() const;
  /// Total duration of the root "op" spans.
  double OpSeconds() const;
  int64_t OpCount() const;

 private:
  std::vector<SpanRecorder::Span> spans_;
  std::vector<double> self_;
};

/// Adds the per-layer self time, uncovered share and tracing overhead
/// of a traced run: `traced_ms` / `untraced_ms` are the op latencies of
/// the interleaved traced and untraced operations, and the overhead is
/// the difference of their means.
void AddTraceSummary(const TraceAnalysis& trace,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms, Report* report);

/// Adds the closed-loop latency/throughput metrics of the measured
/// phase under the generic end-to-end names (op_ms_p50, op_ms_p90,
/// ops_per_s) and as <op_name>_ms_p50, <op_name>_ms_p99 and `per_s`.
void AddLatencyMetrics(const std::vector<double>& op_ms, double busy_seconds,
                       const std::string& op_name, const std::string& per_s,
                       Report* report);

/// Runs `setup(r)` then the untimed `check(r)` 1 + `repeats` times:
/// r = 0 on a pool of `opts.alt_threads` threads (the determinism
/// gate's second thread count), then r = 1..repeats on `opts.threads`
/// threads. Only the latter set-ups are timed into
/// `report->setup_seconds`; setup_s is their median. Leaves the pool at
/// `opts.threads`.
template <typename Setup, typename Check>
void RunSetups(const Options& opts, int repeats, Setup&& setup, Check&& check,
               Report* report);

/// Resizes the process-wide pool.
void SetThreads(int threads);

/// Testbed configuration used for labelling in every workload: the
/// repository's fast model presets with a reduced query workload.
autoce::ce::TestbedConfig LabelTestbed(uint64_t seed);

/// Advisor configuration used by every workload that fits one.
autoce::advisor::AutoCeConfig AdvisorConfig();

/// Generator parameters of the small corpora advisors are fitted on.
autoce::data::DatasetGenParams CorpusParams();

/// Fractional part of the k-th (k < 2) Kronecker sequence at index i
/// started at `offset`: consecutive indices cover [0, 1) evenly.
double Kronecker(int k, uint64_t i, double offset);

/// `count` datasets named "<name>_<j>" whose table and column counts
/// are spread evenly over the ranges in `params` (a Kronecker sequence,
/// the same for every seed), so corpora of different seeds differ in
/// content but not in shape. Rows stay random within the range.
std::vector<autoce::data::Dataset> SpreadCorpus(
    const autoce::data::DatasetGenParams& params, const std::string& name,
    int count, uint64_t seed, uint64_t stream);

/// Sum over tables of rows x columns (the cells featurization scans).
double Cells(const autoce::data::Dataset& dataset);

template <typename Setup, typename Check>
void RunSetups(const Options& opts, int repeats, Setup&& setup, Check&& check,
               Report* report) {
  SetThreads(opts.alt_threads);
  setup(0);
  check(0);
  SetThreads(opts.threads);
  for (int r = 1; r <= repeats; ++r) {
    double start = NowSeconds();
    setup(r);
    report->setup_seconds.push_back(NowSeconds() - start);
    check(r);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
