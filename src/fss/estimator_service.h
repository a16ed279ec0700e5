#ifndef AUTOCE_FSS_ESTIMATOR_SERVICE_H_
#define AUTOCE_FSS_ESTIMATOR_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ce/estimator.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/fss_hash.h"
#include "fss/knowledge_store.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace autoce::fss {

/// Snapshot section the knowledge store serializes into (shared with
/// the CLI's `autoce fss stats|inspect`).
inline constexpr const char* kKnowledgeSection = "fss_knowledge";

/// Service knobs.
struct EstimatorServiceOptions {
  /// Cached subplan estimates, evicted FIFO (0 disables the cache).
  std::size_t cache_capacity = 4096;
  /// Knowledge-aging window: on `NotifyEpoch(e)` entries last observed
  /// before `e - max_age_epochs` are evicted. 0 disables aging.
  uint64_t max_age_epochs = 0;
  /// Drift-disagreement trigger: when an observed true cardinality
  /// disagrees with the previously served answer by more than this
  /// absolute log-ratio (|log((prior+1)/(truth+1))|), the disagreement
  /// hook fires. 0 disables the check.
  double drift_disagreement_threshold = 0.0;
};

/// Cumulative service counters since Open (exported as `fss.*`).
struct ServiceStats {
  uint64_t lookups = 0;           ///< EstimateSubplan calls
  uint64_t knowledge_hits = 0;    ///< answered from observed true cards
  uint64_t cache_hits = 0;        ///< answered from the estimate cache
  uint64_t model_estimates = 0;   ///< answered by the hosted model
  uint64_t fallbacks = 0;         ///< degraded to the histogram baseline
  uint64_t evictions = 0;         ///< cache entries evicted (FIFO)
  uint64_t collisions = 0;        ///< hash collisions detected and refused
  uint64_t feedback = 0;          ///< true cardinalities observed
  uint64_t commits = 0;           ///< knowledge snapshots committed
  uint64_t commit_failures = 0;   ///< failed commits (store untouched)
  uint64_t knowledge_entries = 0; ///< current (FSS, literal) entries
  uint64_t knowledge_subspaces = 0;  ///< current distinct subspaces
  uint64_t age_evictions = 0;     ///< knowledge entries aged out by epoch
  uint64_t drift_disagreements = 0;  ///< feedback past the drift threshold
  uint64_t epoch = 0;             ///< last epoch seen via NotifyEpoch
};

/// The service's exported fields (`fss.*`, obs::StatsExport): the
/// knowledge size and the epoch are levels, the rest counts.
inline std::vector<obs::StatsField> ExportedFields(const ServiceStats& s) {
  constexpr obs::FieldKind kLevel = obs::FieldKind::kLevel;
  return {{"lookups", s.lookups},       {"knowledge_hits", s.knowledge_hits},
          {"cache_hits", s.cache_hits}, {"model_estimates", s.model_estimates},
          {"fallbacks", s.fallbacks},   {"evictions", s.evictions},
          {"collisions", s.collisions}, {"feedback", s.feedback},
          {"commits", s.commits},       {"commit_failures", s.commit_failures},
          {"knowledge_entries", s.knowledge_entries, kLevel},
          {"knowledge_subspaces", s.knowledge_subspaces, kLevel},
          {"age_evictions", s.age_evictions},
          {"drift_disagreements", s.drift_disagreements},
          {"epoch", s.epoch, kLevel}};
}

/// Callback for feedback that disagrees with served knowledge past the
/// configured threshold: `(subplan, abs log-ratio error)`. Invoked
/// outside the service lock.
using DriftDisagreementHook =
    std::function<void(const query::Query&, double)>;

/// \brief Live per-subplan cardinality serving behind the optimizer
/// (DESIGN.md §5.13).
///
/// Hosts the advisor-recommended `ce::CardinalityEstimator` for one
/// dataset and answers `engine::CardinalitySource::EstimateSubplan`
/// through three tiers, most-trusted first:
///
///   1. the persistent knowledge store — exact (FSS, literal) matches of
///      subplans whose TRUE cardinality was observed via executor
///      feedback (`ObserveTrueCardinality`), so repeated subplans are
///      answered from corrected knowledge, not raw model output;
///   2. a bounded FSS-keyed cache of model estimates with deterministic
///      FIFO eviction;
///   3. the hosted model, fixed at Open and re-seeded per subplan with a
///      content-derived key (`SeedInference`) so its estimate is a pure
///      function of (weights, subplan) regardless of call order.
///
/// Degradation (no model, a non-finite/negative model answer,
/// or an injected `fss.lookup` fault) falls back to the PostgreSQL-style
/// histogram baseline — the optimizer always gets an answer. Knowledge
/// persists through `util::SnapshotStore` (CRC-framed, crash-safe,
/// gated by the `fss.commit` fault site); reopening a store directory
/// warm-starts the knowledge tier.
///
/// Thread-safe: one mutex guards the knowledge, the cache, the model,
/// the counters and the hook. It is never held across a fault point, a
/// metrics-registry call or the disagreement hook, so the registry's
/// lock always comes first. Because every tier's answer for a subplan
/// is the same pure function of content, concurrent traffic cannot
/// change WHAT is answered, only which tier answers it.
class EstimatorService : public engine::CardinalitySource {
 public:
  /// Opens the service. `store_dir` empty runs in-memory only;
  /// otherwise the newest good knowledge generation under `store_dir`
  /// is loaded (an empty/missing store starts cold). `model` may be
  /// null (histogram-only serving, every lookup a fallback); `dataset`
  /// must outlive the service.
  static Result<std::unique_ptr<EstimatorService>> Open(
      const std::string& store_dir,
      std::unique_ptr<ce::CardinalityEstimator> model,
      const data::Dataset* dataset, EstimatorServiceOptions options = {});

  /// The optimizer hook: knowledge -> cache -> model -> histogram.
  /// Infallible by contract.
  double EstimateSubplan(const query::Query& q) override;

  /// Executor feedback: folds the observed TRUE cardinality of a
  /// completed subplan into the knowledge store (in memory; durable
  /// after the next `CommitKnowledge`).
  void ObserveTrueCardinality(const query::Query& q, int64_t rows);

  /// An `engine::SubplanObserver` bound to `ObserveTrueCardinality`,
  /// ready for `PlanExecutor::set_subplan_observer`.
  engine::SubplanObserver MakeObserver();

  /// Commits the knowledge store as the next snapshot generation.
  /// No-op OK without a store directory. On failure (including the
  /// `fss.commit` fault site) the previous durable generation is
  /// untouched and in-memory knowledge is kept.
  Status CommitKnowledge();

  /// Dataset-epoch notification from the dyn mutation stream: stamps
  /// future observations with `epoch`, ages out knowledge older than
  /// `max_age_epochs` (when configured), and clears the estimate cache
  /// (cached model answers describe pre-mutation data). Returns the
  /// number of knowledge entries evicted.
  std::size_t NotifyEpoch(uint64_t epoch);

  /// Installs the drift-disagreement hook (see
  /// `EstimatorServiceOptions::drift_disagreement_threshold`). Pass an
  /// empty function to disable. The hook MUST NOT call back into the
  /// service synchronously in a way that re-enters observation.
  void set_disagreement_hook(DriftDisagreementHook hook);

  ServiceStats stats() const;

  /// Name of the hosted model ("none" when degraded to histogram-only).
  std::string model_name() const;

  std::size_t cache_size() const;
  std::size_t knowledge_size() const;

 private:
  EstimatorService(std::unique_ptr<ce::CardinalityEstimator> model,
                   const data::Dataset* dataset,
                   EstimatorServiceOptions options);

  /// Cache probe; counts a collision when the slot holds a different
  /// subplan. Requires mu_.
  std::optional<double> CacheLookup(const FssKey& key);
  /// Caches a model estimate, evicting FIFO to make room. Requires mu_.
  void CacheInsert(const FssKey& key, double estimate);
  /// Drops every cached estimate (knowledge is kept). Requires mu_.
  void ClearCache();

  const EstimatorServiceOptions options_;
  engine::PostgresStyleEstimator histogram_;
  std::optional<util::SnapshotStore> store_;  ///< nullopt = in-memory only
  const std::unique_ptr<ce::CardinalityEstimator> model_;  // null = none

  mutable std::mutex mu_;
  KnowledgeStore knowledge_;  // guarded by mu_
  /// literal_hash -> (signature, estimate); signature checked on hit.
  std::unordered_map<uint64_t, std::pair<std::string, double>>
      cache_;                   // guarded by mu_
  std::deque<uint64_t> fifo_;   // insertion order; guarded by mu_
  ServiceStats stats_;          // guarded by mu_
  DriftDisagreementHook disagreement_hook_;  // guarded by mu_

  obs::StatsExport stats_export_{"fss",
                                 [this] { return ExportedFields(stats()); }};
};

}  // namespace autoce::fss

#endif  // AUTOCE_FSS_ESTIMATOR_SERVICE_H_
