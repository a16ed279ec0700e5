#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace autoce::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0 || bucket_counts.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation among the cumulative bucket counts.
  double target = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < bucket_counts.size(); ++b) {
    int64_t next = cumulative + bucket_counts[b];
    if (static_cast<double>(next) >= target && bucket_counts[b] > 0) {
      if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      double lo = b == 0 ? 0.0 : bounds[b - 1];
      double hi = bounds[b];
      double frac = (target - static_cast<double>(cumulative)) /
                    static_cast<double>(bucket_counts[b]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double v) {
  if (!MetricsEnabled()) return;
  size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop over the raw bits: sum accumulation is off every per-event
  // fast path's critical dependency chain, and contention is bounded by
  // how often anything observes.
  uint64_t old_bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double old_sum;
    __builtin_memcpy(&old_sum, &old_bits, sizeof(old_sum));
    double new_sum = old_sum + v;
    uint64_t new_bits;
    __builtin_memcpy(&new_bits, &new_sum, sizeof(new_bits));
    if (sum_bits_.compare_exchange_weak(old_bits, new_bits,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.bucket_counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.bucket_counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  __builtin_memcpy(&s.sum, &bits, sizeof(s.sum));
  return s;
}

std::vector<double> ExponentialBuckets(double start, double factor, int n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(std::max(0, n)));
  double v = start;
  for (int i = 0; i < n; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double>* buckets =
      new std::vector<double>(ExponentialBuckets(0.05, 2.5, 15));
  return *buckets;
}

namespace {

/// Canonical registry key: `name{k="v",...}` with labels sorted.
std::string InstrumentKey(const std::string& name, LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    for (size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) key += ',';
      key += labels[i].first;
      key += "=\"";
      key += labels[i].second;
      key += '"';
    }
    key += '}';
  }
  return key;
}

/// `a.b.c` -> `a_b_c` (Prometheus names reject dots and dashes).
std::string PromName(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (c == '{') break;  // labels keep their own syntax
    out += (c == '.' || c == '-') ? '_' : c;
  }
  size_t brace = key.find('{');
  if (brace != std::string::npos) out += key.substr(brace);
  return out;
}

/// Splits a key back into (prom name, label block with trailing `}`
/// stripped of the closing brace for suffix insertion).
std::pair<std::string, std::string> SplitPromKey(const std::string& key) {
  std::string prom = PromName(key);
  size_t brace = prom.find('{');
  if (brace == std::string::npos) return {prom, ""};
  return {prom.substr(0, brace),
          prom.substr(brace + 1, prom.size() - brace - 2)};
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

struct MetricsRegistry::State {
  mutable std::mutex mu;
  // std::map: export order is the sorted key order, deterministically.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<uint64_t, const StatsExport*> exports;  // live, by instance
  uint64_t next_instance = 1;
  std::string dump_path;  // at-exit Prometheus dump target ("" = none)
};

/// Every instrument and live StatsExport field, rendered and sorted by
/// key — the one walk both exporters format.
struct MetricsRegistry::Readout {
  std::map<std::string, std::string> counters;
  std::map<std::string, std::string> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

MetricsRegistry& MetricsRegistry::Instance() {
  // Leaked singleton, mirroring FaultInjection::Instance(): instruments
  // may be touched during static destruction of other objects.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

namespace {
void DumpAtExit() {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  std::string text = registry.ExportPrometheus();
  // The dump path was stashed by the constructor; re-read it here so
  // the atexit hook has no ordering dependence on anything destructible.
  const char* env = std::getenv("AUTOCE_METRICS");
  if (env == nullptr) return;
  std::string path = env;
  if (path == "stderr") {
    std::fputs(text.c_str(), stderr);
    return;
  }
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "AUTOCE_METRICS: cannot write %s\n", path.c_str());
  }
}
}  // namespace

MetricsRegistry::MetricsRegistry() : state_(new State()) {
  const char* env = std::getenv("AUTOCE_METRICS");
  if (env != nullptr && env[0] != '\0' && std::string(env) != "0") {
    internal::g_metrics_enabled.store(true, std::memory_order_relaxed);
    if (std::string(env) != "1") {
      state_->dump_path = env;
      std::atexit(DumpAtExit);
    }
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  std::string key = InstrumentKey(name, labels);
  std::lock_guard<std::mutex> lock(state_->mu);
  auto& slot = state_->counters[key];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

void MetricsRegistry::Register(StatsExport* stats) {
  std::lock_guard<std::mutex> lock(state_->mu);
  stats->instance_ = state_->next_instance++;
  state_->exports[stats->instance_] = stats;
}

void MetricsRegistry::Unregister(const StatsExport& stats) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->exports.erase(stats.instance_);
  if (!MetricsEnabled()) return;
  for (const StatsField& field : stats.read_()) {
    if (field.kind == FieldKind::kLevel) continue;
    auto& slot = state_->counters[stats.prefix_ + "." + field.name];
    if (slot == nullptr) slot.reset(new Counter());
    slot->Add(static_cast<int64_t>(field.value));
  }
}

StatsExport::StatsExport(std::string prefix, Reader read)
    : prefix_(std::move(prefix)), read_(std::move(read)) {
  MetricsRegistry::Instance().Register(this);
}

StatsExport::~StatsExport() { MetricsRegistry::Instance().Unregister(*this); }

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  std::string key = InstrumentKey(name, labels);
  std::lock_guard<std::mutex> lock(state_->mu);
  auto& slot = state_->gauges[key];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         std::vector<double> bounds) {
  std::string key = InstrumentKey(name, labels);
  std::lock_guard<std::mutex> lock(state_->mu);
  auto& slot = state_->histograms[key];
  if (slot == nullptr) {
    if (bounds.empty()) bounds = DefaultLatencyBucketsMs();
    slot.reset(new Histogram(std::move(bounds)));
  }
  return slot.get();
}

void MetricsRegistry::Enable() {
  internal::g_metrics_enabled.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::Disable() {
  internal::g_metrics_enabled.store(false, std::memory_order_relaxed);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(state_->mu);
  for (auto& [key, c] : state_->counters) c->value_.store(0);
  for (auto& [key, g] : state_->gauges) g->bits_.store(0);
  for (auto& [key, h] : state_->histograms) {
    for (size_t i = 0; i <= h->bounds_.size(); ++i) h->counts_[i].store(0);
    h->count_.store(0);
    h->sum_bits_.store(0);
  }
}

MetricsRegistry::Readout MetricsRegistry::ReadAll() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  Readout out;
  for (const auto& [key, c] : state_->counters) {
    out.counters[key] = std::to_string(c->value());
  }
  for (const auto& [key, g] : state_->gauges) {
    AppendDouble(&out.gauges[key], g->value());
  }
  for (const auto& [key, h] : state_->histograms) {
    out.histograms[key] = h->Snapshot();
  }
  for (const auto& [instance, stats] : state_->exports) {
    LabelSet labels = {{"instance", std::to_string(instance)}};
    for (const StatsField& field : stats->read_()) {
      std::string key = InstrumentKey(stats->prefix_ + "." + field.name,
                                      labels);
      auto& series =
          field.kind == FieldKind::kLevel ? out.gauges : out.counters;
      series[key] = std::to_string(field.value);
    }
  }
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  const Readout readout = ReadAll();
  std::string out;
  for (const auto& [key, value] : readout.counters) {
    auto [name, labels] = SplitPromKey(key);
    out += name + "_total";
    if (!labels.empty()) out += "{" + labels + "}";
    out += ' ' + value + '\n';
  }
  for (const auto& [key, value] : readout.gauges) {
    out += PromName(key) + ' ' + value + '\n';
  }
  for (const auto& [key, s] : readout.histograms) {
    auto [name, labels] = SplitPromKey(key);
    int64_t cumulative = 0;
    for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
      cumulative += s.bucket_counts[b];
      std::string le = b < s.bounds.size() ? "" : "+Inf";
      if (le.empty()) {
        AppendDouble(&le, s.bounds[b]);
      }
      out += name + "_bucket{";
      if (!labels.empty()) out += labels + ",";
      out += "le=\"" + le + "\"} " + std::to_string(cumulative) + '\n';
    }
    std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    out += name + "_sum" + suffix + ' ';
    AppendDouble(&out, s.sum);
    out += '\n';
    out += name + "_count" + suffix + ' ' + std::to_string(s.count) + '\n';
    for (auto [q, v] : {std::pair<const char*, double>{"0.5", s.p50()},
                        {"0.95", s.p95()},
                        {"0.99", s.p99()}}) {
      out += name + "_quantile{";
      if (!labels.empty()) out += labels + ",";
      out += std::string("q=\"") + q + "\"} ";
      AppendDouble(&out, v);
      out += '\n';
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  const Readout readout = ReadAll();
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ", ";
    first = false;
  };
  for (const auto* series : {&readout.counters, &readout.gauges}) {
    for (const auto& [key, value] : *series) {
      sep();
      out += "\"" + JsonEscape(key) + "\": " + value;
    }
  }
  for (const auto& [key, s] : readout.histograms) {
    sep();
    out += "\"" + JsonEscape(key) + "\": {\"count\": " +
           std::to_string(s.count) + ", \"sum\": ";
    AppendDouble(&out, s.sum);
    out += ", \"p50\": ";
    AppendDouble(&out, s.p50());
    out += ", \"p95\": ";
    AppendDouble(&out, s.p95());
    out += ", \"p99\": ";
    AppendDouble(&out, s.p99());
    out += "}";
  }
  out += "}";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
// Constructs the registry before main() so AUTOCE_METRICS is honored in
// processes that never call Instance() programmatically (same pattern
// as the fault registry's env bootstrap).
const bool g_env_loaded = (MetricsRegistry::Instance(), true);
}  // namespace

}  // namespace autoce::obs
