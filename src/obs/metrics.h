#ifndef AUTOCE_OBS_METRICS_H_
#define AUTOCE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace autoce::obs {

/// \brief Process-wide metrics: counters, gauges, and fixed-bucket
/// histograms (DESIGN.md §5.9).
///
/// Instruments are addressed by interned (name, label set): the first
/// `MetricsRegistry::Get*` call registers the instrument and every
/// later call returns the same stable pointer, so hot paths resolve
/// their handles once and then touch nothing but the instrument's own
/// atomics. Recording follows the established zero-cost-off pattern
/// (util/fault.h): while no sink is enabled (`AUTOCE_METRICS` unset and
/// no programmatic `Enable`), every record call is one relaxed atomic
/// load and a predictable branch.
///
/// Readout is deterministic modulo the recorded values themselves:
/// exporters walk instruments in lexicographic (name, labels) order, so
/// two runs that record the same values export byte-identical text.

/// Ordered `key=value` pairs distinguishing instruments that share a
/// name (e.g. `fault.trips{site=...}`). Keys/values must not contain
/// `"` or newlines; the registry canonicalizes order by sorting.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace internal {
/// Fast-path flag mirroring util::internal::g_fault_enabled.
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True iff a metrics sink is enabled; instruments record only then.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// \brief Monotonically increasing integer (requests, bytes, trips).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins floating-point level (loss, queue depth).
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    bits_.store(Bits(v), std::memory_order_relaxed);
  }
  double value() const { return Value(bits_.load(std::memory_order_relaxed)); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  static uint64_t Bits(double v) {
    uint64_t b;
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double Value(uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};  // IEEE bits of 0.0
};

/// Point-in-time view of a histogram, with quantile readout.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;          ///< ascending upper bounds
  std::vector<int64_t> bucket_counts;  ///< bounds.size() + 1 (overflow last)

  /// q-th quantile (q in [0, 1]) by linear interpolation inside the
  /// containing bucket; observations beyond the last bound report the
  /// last finite bound. 0 for an empty histogram.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
};

/// \brief Fixed-bucket histogram (per-request latency, fsync time).
///
/// Bucket bounds are fixed at registration, so `Observe` is a binary
/// search plus two relaxed atomic adds — no allocation, no lock.
class Histogram {
 public:
  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // IEEE bits, CAS-accumulated
};

/// `n` exponentially spaced upper bounds starting at `start` (e.g.
/// ExponentialBuckets(0.05, 2.5, 10) for millisecond latencies).
std::vector<double> ExponentialBuckets(double start, double factor, int n);

/// Default latency buckets in milliseconds: 50 µs .. ~47 s.
const std::vector<double>& DefaultLatencyBucketsMs();

/// Whether an exported Stats field counts events or holds a level.
enum class FieldKind { kCount, kLevel };

/// One numeric field of an owner's Stats struct, as StatsExport reads it.
struct StatsField {
  const char* name;  ///< exported as `<prefix>.<name>`
  uint64_t value;
  FieldKind kind = FieldKind::kCount;
};

/// \brief Exports one live instance's Stats struct (DESIGN.md §5.9).
///
/// While it lives, the exporters call `read` and print each field as
/// `<prefix>.<field>{instance="<n>"}`, `n` a process-unique number
/// (levels as gauges, counts as counters). On destruction the final
/// counts are added to the unlabelled `<prefix>.<field>` counter (a
/// gated add) and levels are dropped, under the exporters' lock. Owners
/// hold it as their LAST member. `read` runs under the registry lock,
/// so an owner must never call the registry while holding a lock `read`
/// takes.
class StatsExport {
 public:
  using Reader = std::function<std::vector<StatsField>()>;

  StatsExport(std::string prefix, Reader read);
  ~StatsExport();

  StatsExport(const StatsExport&) = delete;
  StatsExport& operator=(const StatsExport&) = delete;

  /// The `instance` label value of this registration.
  uint64_t instance() const { return instance_; }

 private:
  friend class MetricsRegistry;
  const std::string prefix_;
  const Reader read_;
  uint64_t instance_ = 0;  // assigned by the registry
};

/// \brief The process-wide instrument registry (thread-safe).
class MetricsRegistry {
 public:
  /// The singleton. First construction reads `AUTOCE_METRICS` from the
  /// environment: unset/empty/"0" leaves metrics dormant; any other
  /// value enables recording, and a value naming a path additionally
  /// dumps Prometheus text there at process exit ("stderr" dumps to
  /// stderr).
  static MetricsRegistry& Instance();

  /// Interned lookup-or-register; the returned pointer is stable for
  /// the process lifetime. Re-registering a histogram name with
  /// different bounds keeps the first registration's bounds.
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  /// Empty `bounds` selects DefaultLatencyBucketsMs().
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels = {},
                          std::vector<double> bounds = {});

  /// Turns recording on/off (values are retained across Disable).
  void Enable();
  void Disable();

  /// Zeroes every registered instrument (tests and bench sweeps).
  void Reset();

  /// Prometheus text exposition: `name{labels} value` lines, sorted;
  /// dots in names render as underscores, histograms expand to
  /// `_bucket`/`_sum`/`_count` plus p50/p95/p99 gauge lines. Live
  /// StatsExport fields are merged in with their `instance` label.
  std::string ExportPrometheus() const;

  /// One JSON object keyed by `name{labels}` (JSON-escaped), sorted;
  /// histograms render as {count, sum, p50, p95, p99}. Embedded by run
  /// manifests.
  std::string ExportJson() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class StatsExport;
  MetricsRegistry();
  void Register(StatsExport* stats);
  void Unregister(const StatsExport& stats);
  struct Readout;
  Readout ReadAll() const;
  struct State;
  State* state_;  // leaked with the singleton (instruments must outlive
                  // any static-destruction-order user, like the fault
                  // registry in util/fault.cc)
};

/// `s` escaped for use inside a JSON string literal (quotes,
/// backslashes and control characters).
std::string JsonEscape(const std::string& s);

}  // namespace autoce::obs

#endif  // AUTOCE_OBS_METRICS_H_
