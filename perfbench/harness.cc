#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {

namespace {

thread_local int32_t tls_parent = -1;
thread_local uint64_t tls_request = 0;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Report::AddEndToEnd(const std::string& name, double value,
                         const std::string& unit, int64_t samples) {
  end_to_end.emplace_back(name, Metric{value, unit, samples});
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit, int64_t samples) {
  per_layer.emplace_back(name, Metric{value, unit, samples});
}

void Report::AddNamed(const std::string& name, double value,
                      const std::string& unit, int64_t samples) {
  named.emplace_back(name, Metric{value, unit, samples});
}

void Report::CountOp(const std::string& op, bool failed) {
  OpCount& c = ops[op];
  ++c.attempted;
  if (failed) ++c.failed;
}

void Report::AddDigest(const std::string& name, uint64_t value) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  digests.emplace_back(name, hex);
}

void Report::ExpectSame(const std::string& what, uint64_t a, uint64_t b) {
  CountOp("gate", a != b);
  if (a == b) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %016llx != %016llx", what.c_str(),
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  gate_errors.push_back(buf);
}

void Digest::Add(uint64_t v) {
  for (int b = 0; b < 8; ++b) Byte((v >> (8 * b)) & 0xFF);
}

void Digest::Add(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) Byte(c);
  Byte(0);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // splitmix64 finalizer over a combination of the three inputs.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Pct(std::move(v), 50.0); }

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = [] {
    auto* r = new SpanRecorder();
    // Room for a traced run's spans, so growth does not land inside
    // traced operations.
    r->spans_.reserve(1 << 18);
    return r;
  }();
  return *recorder;
}

void SpanRecorder::set_request(uint64_t id) { tls_request = id; }

int32_t SpanRecorder::Begin(const char* name, double work, int32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = tls_request;
  span.work = work;
  span.start_ns = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t index) {
  int64_t end = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

SpanRecorder::Scope::Scope(const char* name, double work) {
  SpanRecorder& rec = Instance();
  if (!rec.enabled()) return;
  saved_parent_ = tls_parent;
  index_ = rec.Begin(name, work, tls_parent);
  tls_parent = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Instance().End(index_);
  tls_parent = saved_parent_;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::vector<Span> spans = this->spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"request\":%llu,\"work\":%.17g}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.request), s.work);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

TraceAnalysis::TraceAnalysis(std::vector<SpanRecorder::Span> spans)
    : spans_(std::move(spans)), self_(spans_.size(), 0.0) {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    self_[i] = dur - child[i];
  }
}

std::vector<double> TraceAnalysis::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> TraceAnalysis::SelfTimes(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self_[i]);
  }
  return out;
}

double TraceAnalysis::Work(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (name == s.name) total += s.work;
  }
  return total;
}

std::map<std::string, double> TraceAnalysis::LayerSelfSeconds() const {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::string name = spans_[i].name;
    std::string layer =
        name == "op" ? "uncovered" : name.substr(0, name.find('.'));
    out[layer] += self_[i];
  }
  return out;
}

double TraceAnalysis::OpSeconds() const {
  double total = 0.0;
  for (double d : Durations("op")) total += d;
  return total;
}

int64_t TraceAnalysis::OpCount() const {
  return static_cast<int64_t>(Durations("op").size());
}

void AddTraceSummary(const TraceAnalysis& trace,
                     const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms, Report* report) {
  std::map<std::string, double> self = trace.LayerSelfSeconds();
  int64_t ops = trace.OpCount();
  double per_op = ops > 0 ? 1e3 / static_cast<double>(ops) : 0.0;
  for (const char* layer : {"data", "featgraph", "serve", "engine", "fss", "ce",
                            "advisor", "adapt"}) {
    report->AddLayer(std::string("self_ms.") + layer, self[layer] * per_op, "ms",
                     ops);
  }
  double op_seconds = trace.OpSeconds();
  report->AddLayer("trace.uncovered_share",
                   op_seconds > 0 ? self["uncovered"] / op_seconds : 0.0,
                   "ratio", ops);
  // Means, not medians: the halves hold different inputs, and over a
  // wide latency mix their means agree far more closely.
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double untraced = mean(untraced_ms);
  const double traced = mean(traced_ms);
  report->AddLayer("trace.overhead_pct",
                   untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0,
                   "%",
                   static_cast<int64_t>(traced_ms.size() + untraced_ms.size()));
}

void AddLatencyMetrics(const std::vector<double>& op_ms, double busy_seconds,
                       const std::string& op_name, const std::string& per_s,
                       Report* report) {
  const int64_t n = static_cast<int64_t>(op_ms.size());
  const double p50 = Pct(op_ms, 50.0);
  const double rate = busy_seconds > 0 ? static_cast<double>(n) / busy_seconds : 0.0;
  report->AddEndToEnd("op_ms_p50", p50, "ms", n);
  report->AddEndToEnd("op_ms_p90", Pct(op_ms, 90.0), "ms", n);
  report->AddEndToEnd("ops_per_s", rate, "1/s", n);
  report->AddNamed(op_name + "_ms_p50", p50, "ms", n);
  report->AddNamed(op_name + "_ms_p99", Pct(op_ms, 99.0), "ms", n);
  report->AddNamed(per_s, rate, "1/s", n);
}

void SetThreads(int threads) {
  if (autoce::util::GlobalParallelism() != threads) {
    autoce::util::SetGlobalParallelism(threads);
  }
}

autoce::ce::TestbedConfig LabelTestbed(uint64_t seed) {
  autoce::ce::TestbedConfig tb;
  tb.num_train_queries = 80;
  tb.num_test_queries = 40;
  tb.scale = autoce::ce::ModelTrainingScale::Fast();
  tb.seed = seed;
  return tb;
}

autoce::advisor::AutoCeConfig AdvisorConfig() {
  autoce::advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 40;
  cfg.gin.hidden = 32;
  cfg.gin.embedding_dim = 16;
  cfg.knn_k = 3;
  // Flag as out of distribution what lies beyond the median RCS
  // nearest-neighbour distance (default: the 90th percentile), so a
  // small build corpus still admits a full shifted stream.
  cfg.drift_percentile = 50.0;
  return cfg;
}

autoce::data::DatasetGenParams CorpusParams() {
  autoce::data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 4;
  gen.min_columns = 1;
  gen.max_columns = 6;
  gen.min_domain = 20;
  gen.max_domain = 2000;
  gen.max_fanout_skew = 2.0;
  gen.min_rows = 300;
  gen.max_rows = 900;
  return gen;
}

double Kronecker(int k, uint64_t i, double offset) {
  // Golden ratio, then frac(sqrt 2).
  static constexpr double kAlpha[2] = {0.6180339887498949, 0.41421356237309515};
  double x = offset + kAlpha[k] * static_cast<double>(i);
  return x - std::floor(x);
}

std::vector<autoce::data::Dataset> SpreadCorpus(
    const autoce::data::DatasetGenParams& params, const std::string& name,
    int count, uint64_t seed, uint64_t stream) {
  std::vector<autoce::data::Dataset> out;
  for (int j = 0; j < count; ++j) {
    const uint64_t idx = static_cast<uint64_t>(j);
    autoce::Rng rng(SubSeed(seed, stream, idx));
    autoce::data::DatasetGenParams p = params;
    p.name = name + "_" + std::to_string(j);
    const int tables = params.max_tables - params.min_tables + 1;
    const int columns = params.max_columns - params.min_columns + 1;
    p.min_tables = p.max_tables =
        params.min_tables + static_cast<int>(Kronecker(0, idx, 0.5) * tables);
    p.min_columns = p.max_columns =
        params.min_columns + static_cast<int>(Kronecker(1, idx, 0.5) * columns);
    out.push_back(autoce::data::GenerateDataset(p, &rng));
  }
  return out;
}

double Cells(const autoce::data::Dataset& dataset) {
  double cells = 0.0;
  for (const auto& t : dataset.tables()) {
    cells += static_cast<double>(t.NumRows()) * t.NumColumns();
  }
  return cells;
}

}  // namespace perfbench
