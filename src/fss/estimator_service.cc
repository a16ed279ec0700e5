#include "fss/estimator_service.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::fss {

namespace {

/// Base seed mixed (content-keyed) into `SeedInference` before every
/// model estimate, making sampling models call-order independent.
constexpr uint64_t kInferenceSeed = 42;

}  // namespace

EstimatorService::EstimatorService(
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options)
    : options_(options), histogram_(dataset), model_(std::move(model)) {}

Result<std::unique_ptr<EstimatorService>> EstimatorService::Open(
    const std::string& store_dir,
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options) {
  AUTOCE_CHECK(dataset != nullptr);
  std::unique_ptr<EstimatorService> service(
      new EstimatorService(std::move(model), dataset, options));
  if (!store_dir.empty()) {
    auto store = util::SnapshotStore::Open(store_dir);
    if (!store.ok()) return store.status();
    service->store_ = std::move(store).ValueOrDie();
    // Warm-start from the newest good generation; a fresh directory is
    // simply a cold knowledge tier.
    auto sections = service->store_->LoadLatest();
    if (sections.ok()) {
      for (const auto& section : *sections) {
        if (section.name != kKnowledgeSection) continue;
        auto knowledge = KnowledgeStore::Deserialize(section.payload);
        if (!knowledge.ok()) return knowledge.status();
        service->knowledge_ = std::move(knowledge).ValueOrDie();
      }
    }
  }
  return service;
}

std::optional<double> EstimatorService::CacheLookup(const FssKey& key) {
  auto it = cache_.find(key.literal_hash);
  if (it == cache_.end()) return std::nullopt;
  if (it->second.first != key.signature) {
    ++stats_.collisions;
    return std::nullopt;
  }
  return it->second.second;
}

void EstimatorService::CacheInsert(const FssKey& key, double estimate) {
  if (options_.cache_capacity == 0) return;
  auto it = cache_.find(key.literal_hash);
  if (it != cache_.end()) {
    // Occupied: refresh on signature match, refuse on collision (the
    // resident entry keeps its slot; both subplans still get correct
    // answers, just not from this cache).
    if (it->second.first == key.signature) it->second.second = estimate;
    return;
  }
  while (cache_.size() >= options_.cache_capacity && !fifo_.empty()) {
    cache_.erase(fifo_.front());
    fifo_.pop_front();
    ++stats_.evictions;
  }
  cache_.emplace(key.literal_hash, std::make_pair(key.signature, estimate));
  fifo_.push_back(key.literal_hash);
}

void EstimatorService::ClearCache() {
  cache_.clear();
  fifo_.clear();
}

double EstimatorService::EstimateSubplan(const query::Query& q) {
  static obs::Histogram* const latency_ms =
      obs::MetricsRegistry::Instance().GetHistogram("fss.lookup_latency_ms");
  Timer timer;
  FssKey key = MakeFssKey(q);
  double answer = [&] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Tier 1: corrected knowledge (observed true cardinalities).
      if (auto hit = knowledge_.Lookup(key)) {
        ++stats_.lookups;
        ++stats_.knowledge_hits;
        return *hit;
      }
      // Tier 2: cached model estimates.
      if (auto hit = CacheLookup(key)) {
        ++stats_.lookups;
        ++stats_.cache_hits;
        return *hit;
      }
    }
    // Tier 3: the hosted model, content-seeded so the answer is
    // independent of call order. The `fss.lookup` fault site models the
    // estimator being unavailable for this subplan.
    const bool degraded = util::FaultPoint(util::fault_sites::kFssLookup,
                                           key.literal_hash);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.lookups;
      if (!degraded && model_ != nullptr) {
        model_->SeedInference(
            util::FaultKeyMix(kInferenceSeed, key.literal_hash));
        double estimate = model_->EstimateCardinality(q);
        if (std::isfinite(estimate) && estimate >= 0.0) {
          CacheInsert(key, estimate);
          ++stats_.model_estimates;
          return estimate;
        }
      }
      ++stats_.fallbacks;
    }
    // Fallback tier: the histogram baseline (never cached, so a
    // transient degradation cannot freeze a degraded answer in).
    return histogram_.EstimateCardinality(q);
  }();
  latency_ms->Observe(timer.ElapsedMillis());
  return answer;
}

void EstimatorService::ObserveTrueCardinality(const query::Query& q,
                                              int64_t rows) {
  if (rows < 0) return;
  FssKey key = MakeFssKey(q);
  const bool check_drift = options_.drift_disagreement_threshold > 0.0;
  double err = 0.0;
  DriftDisagreementHook hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Prior served answer for this subplan, if any: knowledge first (the
    // tier that would have answered), else the cached model estimate.
    // Captured before Observe folds the new truth in.
    std::optional<double> prior;
    if (check_drift) {
      prior = knowledge_.Lookup(key);
      if (!prior.has_value()) prior = CacheLookup(key);
    }
    knowledge_.Observe(key, static_cast<double>(rows));
    ++stats_.feedback;
    // Log-ratio disagreement between what we would have served and the
    // observed truth; +1 keeps empty subplans finite.
    if (prior.has_value()) {
      err = std::abs(std::log((*prior + 1.0) /
                              (static_cast<double>(rows) + 1.0)));
    }
    if (!prior.has_value() || !(err > options_.drift_disagreement_threshold)) {
      return;
    }
    ++stats_.drift_disagreements;
    hook = disagreement_hook_;
  }
  if (hook) hook(q, err);  // outside the service lock
}

std::size_t EstimatorService::NotifyEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  knowledge_.set_epoch(epoch);
  std::size_t evicted = 0;
  if (options_.max_age_epochs > 0 && epoch > options_.max_age_epochs) {
    evicted = knowledge_.EvictOlderThan(epoch - options_.max_age_epochs);
  }
  // Cached model estimates describe the pre-mutation data distribution;
  // drop them so the next lookup re-estimates against current state.
  ClearCache();
  stats_.epoch = epoch;
  stats_.age_evictions += evicted;
  return evicted;
}

void EstimatorService::set_disagreement_hook(DriftDisagreementHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  disagreement_hook_ = std::move(hook);
}

engine::SubplanObserver EstimatorService::MakeObserver() {
  return [this](const query::Query& subquery, int64_t rows) {
    ObserveTrueCardinality(subquery, rows);
  };
}

Status EstimatorService::CommitKnowledge() {
  if (!store_.has_value()) return Status::OK();
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    payload = knowledge_.Serialize();
  }
  auto fail = [&](Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.commit_failures;
    return status;
  };
  // Content-derived key: the same knowledge commits (or faults) the
  // same way at any thread count.
  if (util::FaultPoint(util::fault_sites::kFssCommit,
                       FssBytesHash(payload))) {
    return fail(Status::Internal(
        "injected fss.commit fault: knowledge snapshot not committed"));
  }
  std::vector<util::SnapshotSection> sections;
  sections.push_back({kKnowledgeSection, std::move(payload)});
  auto generation = store_->Commit(sections);
  if (!generation.ok()) return fail(generation.status());
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.commits;
  return Status::OK();
}

ServiceStats EstimatorService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.knowledge_entries = knowledge_.size();
  out.knowledge_subspaces = knowledge_.num_subspaces();
  out.collisions += knowledge_.collisions();
  return out;
}

std::string EstimatorService::model_name() const {
  return model_ == nullptr ? "none" : model_->name();
}

std::size_t EstimatorService::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

std::size_t EstimatorService::knowledge_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return knowledge_.size();
}

}  // namespace autoce::fss
