#include "fss/estimator_service.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::fss {

EstimatorService::EstimatorService(
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options)
    : options_(options), histogram_(dataset), model_(std::move(model)) {
  std::size_t shards = options_.cache_shards == 0 ? 1 : options_.cache_shards;
  if (options_.cache_capacity > 0 && shards > options_.cache_capacity) {
    shards = options_.cache_capacity;
  }
  shard_capacity_ =
      options_.cache_capacity == 0
          ? 0
          : (options_.cache_capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
}

Result<std::unique_ptr<EstimatorService>> EstimatorService::Open(
    const std::string& store_dir,
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options) {
  AUTOCE_CHECK(dataset != nullptr);
  std::unique_ptr<EstimatorService> service(
      new EstimatorService(std::move(model), dataset, options));
  if (!store_dir.empty()) {
    auto store = util::SnapshotStore::Open(store_dir, options.store_options);
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

EstimatorService::CacheShard& EstimatorService::ShardFor(const FssKey& key) {
  return *shards_[key.literal_hash % shards_.size()];
}

std::optional<double> EstimatorService::CacheLookup(const FssKey& key,
                                                    bool* collided) {
  if (shard_capacity_ == 0) return std::nullopt;
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key.literal_hash);
  if (it == shard.entries.end()) return std::nullopt;
  if (it->second.first != key.signature) {
    *collided = true;
    return std::nullopt;
  }
  return it->second.second;
}

std::size_t EstimatorService::CacheInsert(const FssKey& key, double estimate) {
  if (shard_capacity_ == 0) return 0;
  CacheShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key.literal_hash);
  if (it != shard.entries.end()) {
    // Occupied: refresh on signature match, refuse on collision (the
    // resident entry keeps its slot; both subplans still get correct
    // answers, just not from this cache).
    if (it->second.first == key.signature) it->second.second = estimate;
    return 0;
  }
  std::size_t evicted = 0;
  while (shard.entries.size() >= shard_capacity_ && !shard.fifo.empty()) {
    shard.entries.erase(shard.fifo.front());
    shard.fifo.pop_front();
    ++evicted;
  }
  shard.entries.emplace(key.literal_hash,
                        std::make_pair(key.signature, estimate));
  shard.fifo.push_back(key.literal_hash);
  return evicted;
}

double EstimatorService::EstimateSubplan(const query::Query& q) {
  static obs::Histogram* const latency_ms =
      obs::MetricsRegistry::Instance().GetHistogram("fss.lookup_latency_ms");
  Timer timer;
  FssKey key = MakeFssKey(q);
  // Which tier answered, plus what the cache saw on the way; counted
  // together in one stats critical section below.
  uint64_t ServiceStats::*tier = &ServiceStats::fallbacks;
  bool collided = false;
  std::size_t evicted = 0;
  double answer = [&] {
    // Tier 1: corrected knowledge (observed true cardinalities).
    {
      std::lock_guard<std::mutex> lock(knowledge_mu_);
      if (auto hit = knowledge_.Lookup(key)) {
        tier = &ServiceStats::knowledge_hits;
        return *hit;
      }
    }

    // Tier 2: cached model estimates.
    if (auto hit = CacheLookup(key, &collided)) {
      tier = &ServiceStats::cache_hits;
      return *hit;
    }

    // Tier 3: the hosted model, content-seeded so the answer is
    // independent of concurrent call order. The `fss.lookup` fault site
    // models the estimator being unavailable for this subplan.
    bool degraded = util::FaultPoint(util::fault_sites::kFssLookup,
                                     key.literal_hash);
    double estimate = -1.0;
    bool have_model = false;
    if (!degraded) {
      std::lock_guard<std::mutex> lock(model_mu_);
      if (model_ != nullptr) {
        have_model = true;
        model_->SeedInference(
            util::FaultKeyMix(options_.inference_seed, key.literal_hash));
        estimate = model_->EstimateCardinality(q);
      }
    }
    if (!degraded && have_model && std::isfinite(estimate) &&
        estimate >= 0.0) {
      evicted = CacheInsert(key, estimate);
      tier = &ServiceStats::model_estimates;
      return estimate;
    }

    // Fallback tier: the histogram baseline (never cached, so a
    // transient degradation cannot freeze a degraded answer in).
    return histogram_.EstimateCardinality(q);
  }();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.lookups;
    ++(stats_.*tier);
    stats_.collisions += collided;
    stats_.evictions += evicted;
  }
  latency_ms->Observe(timer.ElapsedMillis());
  return answer;
}

void EstimatorService::ObserveTrueCardinality(const query::Query& q,
                                              int64_t rows) {
  if (rows < 0) return;
  FssKey key = MakeFssKey(q);
  // Prior served answer for this subplan, if any: knowledge first (the
  // tier that would have answered), else the cached model estimate.
  // Captured before Observe folds the new truth in.
  std::optional<double> prior;
  const bool check_drift = options_.drift_disagreement_threshold > 0.0;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    if (check_drift) prior = knowledge_.Lookup(key);
    knowledge_.Observe(key, static_cast<double>(rows));
  }
  bool collided = false;
  if (check_drift && !prior.has_value()) prior = CacheLookup(key, &collided);
  // Log-ratio disagreement between what we would have served and the
  // observed truth; +1 keeps empty subplans finite. `prior` is only
  // captured when the drift check is on.
  double err = 0.0;
  if (prior.has_value()) {
    err = std::abs(std::log((*prior + 1.0) /
                            (static_cast<double>(rows) + 1.0)));
  }
  const bool disagrees = err > options_.drift_disagreement_threshold &&
                         prior.has_value();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.feedback;
    stats_.collisions += collided;
    stats_.drift_disagreements += disagrees;
  }
  if (!disagrees) return;
  DriftDisagreementHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = disagreement_hook_;
  }
  if (hook) hook(q, err);  // outside every service lock
}

std::size_t EstimatorService::NotifyEpoch(uint64_t epoch) {
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    knowledge_.set_epoch(epoch);
    if (options_.max_age_epochs > 0 && epoch > options_.max_age_epochs) {
      evicted = knowledge_.EvictOlderThan(epoch - options_.max_age_epochs);
    }
  }
  // Cached model estimates describe the pre-mutation data distribution;
  // drop them so the next lookup re-estimates against current state.
  ClearCache();
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.epoch = epoch;
  stats_.age_evictions += evicted;
  return evicted;
}

void EstimatorService::set_disagreement_hook(DriftDisagreementHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
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
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    payload = knowledge_.Serialize();
  }
  auto fail = [&](Status status) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
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
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.commits;
  return Status::OK();
}

void EstimatorService::InstallModel(
    std::unique_ptr<ce::CardinalityEstimator> model) {
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(model);
}

void EstimatorService::ClearCache() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->entries.clear();
    shard->fifo.clear();
  }
}

ServiceStats EstimatorService::stats() const {
  uint64_t entries = 0, subspaces = 0, knowledge_collisions = 0;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    entries = knowledge_.size();
    subspaces = knowledge_.num_subspaces();
    knowledge_collisions = knowledge_.collisions();
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ServiceStats out = stats_;
  out.knowledge_entries = entries;
  out.knowledge_subspaces = subspaces;
  out.collisions += knowledge_collisions;
  return out;
}

std::string EstimatorService::model_name() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_ == nullptr ? "none" : model_->name();
}

std::size_t EstimatorService::cache_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

std::size_t EstimatorService::knowledge_size() const {
  std::lock_guard<std::mutex> lock(knowledge_mu_);
  return knowledge_.size();
}

}  // namespace autoce::fss
