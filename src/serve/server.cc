#include "serve/server.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::serve {

AdvisorServer::AdvisorServer(advisor::AutoCe advisor, ServerConfig config)
    : config_(config),
      advisor_(std::make_shared<const advisor::AutoCe>(std::move(advisor))) {
  AUTOCE_CHECK(config_.max_batch >= 1);
}

Result<std::unique_ptr<AdvisorServer>> AdvisorServer::Open(
    const std::string& dir, ServerConfig config,
    util::SnapshotStoreOptions options) {
  uint64_t generation = 0;
  AUTOCE_ASSIGN_OR_RETURN(advisor::AutoCe advisor,
                          advisor::AutoCe::ResumeFit(dir, options,
                                                     &generation));
  auto server =
      std::make_unique<AdvisorServer>(std::move(advisor), config);
  server->store_dir_ = dir;
  server->store_options_ = options;
  server->generation_ = generation;
  return server;
}

const AdvisorServer::CacheEntry* AdvisorServer::CacheLookup(uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second;
}

void AdvisorServer::CacheInsert(uint64_t key, std::vector<double> embedding) {
  if (config_.cache_capacity == 0) return;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    it->second.embedding = std::move(embedding);
    return;
  }
  if (cache_.size() >= config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{std::move(embedding), lru_.begin()});
}

std::vector<RecommendResponse> AdvisorServer::Serve(
    const std::vector<RecommendRequest>& requests) {
  // The model is pinned for the whole burst: a concurrent Reload swaps
  // the shared_ptr but this burst keeps answering from the generation
  // it admitted under — no request is dropped mid-reload.
  obs::TraceSpan span("serve.burst");
  // Each request's time-in-burst, recorded when its batch completes.
  static obs::Histogram* const request_ms =
      obs::MetricsRegistry::Instance().GetHistogram("serve.request_ms");
  Timer burst_timer;
  // Deadlines are measured from burst start on the (injectable) clock,
  // 0 meaning "none".
  const util::ClockFn& clock =
      config_.clock ? config_.clock : util::ClockFn(&util::SteadyClockSeconds);
  const double burst_start = clock();
  const double deadline = config_.request_deadline_ms;
  std::shared_ptr<const advisor::AutoCe> advisor;
  uint64_t generation = 0, install = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    advisor = advisor_;
    generation = generation_;
    install = installs_;
    stats_.requests += requests.size();
  }

  std::vector<RecommendResponse> responses(requests.size());
  // Admission: arrival order, bounded by queue_capacity; the overflow
  // and injected-fault requests are shed to the degraded corpus
  // default. The shed decision depends only on arrival position and
  // request content, never on thread count.
  std::vector<size_t> admitted;
  admitted.reserve(std::min(requests.size(), config_.queue_capacity));
  // Each request's fingerprint, computed once: the admission fault key
  // and the embedding cache key.
  std::vector<uint64_t> keys(requests.size());
  uint64_t shed = 0, deadline_shed = 0;
  const double admission_elapsed_ms = (clock() - burst_start) * 1000.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i].id = requests[i].id;
    responses[i].model_generation = generation;
    keys[i] = featgraph::GraphFingerprint(requests[i].graph);
    const char* shed_reason = nullptr;
    bool deadline_expired = false;
    if (admitted.size() >= config_.queue_capacity) {
      shed_reason = "admission queue overflow";
    } else if (deadline > 0.0 && admission_elapsed_ms >= deadline) {
      shed_reason = "request deadline expired at admission";
      deadline_expired = true;
    } else if (util::FaultPoint(util::fault_sites::kServeAdmission,
                                keys[i])) {
      shed_reason = "injected admission fault";
    }
    if (shed_reason != nullptr) {
      responses[i].shed = true;
      responses[i].recommendation =
          advisor->CorpusDefault(requests[i].w_a, shed_reason);
      ++shed;
      deadline_shed += deadline_expired;
      request_ms->Observe(burst_timer.ElapsedMillis());
      continue;
    }
    admitted.push_back(i);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.admitted += admitted.size();
    stats_.shed += shed;
    stats_.deadline_shed += deadline_shed;
  }

  // Coalesce admitted requests into batches of max_batch, in admission
  // order. Each batch embeds its cache misses in ONE stacked GIN
  // forward (bit-identical to per-graph embedding, so batch composition
  // cannot change response bits).
  size_t vertex_dim = advisor->extractor().vertex_dim();
  for (size_t b = 0; b < admitted.size(); b += config_.max_batch) {
    size_t end = std::min(admitted.size(), b + config_.max_batch);
    // Expiry check when the batch starts: earlier batches consumed the
    // burst's time, and an admitted request whose deadline has since
    // passed is shed instead of embedded — it would miss its deadline
    // anyway, and shedding it keeps its batch slot for live requests.
    const bool expired =
        deadline > 0.0 && (clock() - burst_start) * 1000.0 >= deadline;
    struct Pending {
      size_t request;     // index into `requests`
      std::vector<double> embedding;
      bool from_cache = false;
    };
    std::vector<Pending> pending;
    std::vector<size_t> misses;  // indices into `pending`
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The cache holds the installed model's embeddings; a burst pinned
      // to a model a Reload has since replaced bypasses it.
      const bool use_cache = install == installs_;
      for (size_t j = b; j < end; ++j) {
        size_t i = admitted[j];
        if (expired) {
          responses[i].shed = true;
          responses[i].recommendation = advisor->CorpusDefault(
              requests[i].w_a, "request deadline expired before batch");
          ++stats_.shed;
          ++stats_.deadline_shed;
          request_ms->Observe(burst_timer.ElapsedMillis());
          continue;
        }
        Status valid = featgraph::ValidateGraph(requests[i].graph,
                                                vertex_dim);
        if (!valid.ok()) {
          responses[i].status = valid;
          ++stats_.invalid;
          continue;
        }
        Pending p;
        p.request = i;
        if (const CacheEntry* hit = use_cache ? CacheLookup(keys[i]) : nullptr) {
          p.embedding = hit->embedding;
          p.from_cache = true;
          ++stats_.cache_hits;
        } else {
          misses.push_back(pending.size());
        }
        pending.push_back(std::move(p));
      }
    }

    if (!misses.empty()) {
      std::vector<const featgraph::FeatureGraph*> graphs;
      graphs.reserve(misses.size());
      for (size_t m : misses) {
        graphs.push_back(&requests[pending[m].request].graph);
      }
      std::vector<std::vector<double>> embedded;
      {
        obs::TraceSpan embed_span("serve.embed_batch");
        embedded = advisor->EmbedBatch(graphs);
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batches;
      stats_.embedded += misses.size();
      // Re-checked: a Reload may have installed a new model while this
      // batch embedded under the old one.
      const bool use_cache = install == installs_;
      for (size_t k = 0; k < misses.size(); ++k) {
        Pending& p = pending[misses[k]];
        p.embedding = embedded[k];
        if (use_cache) CacheInsert(keys[p.request], std::move(embedded[k]));
      }
    }

    for (Pending& p : pending) {
      RecommendResponse& resp = responses[p.request];
      resp.from_cache = p.from_cache;
      auto rec = advisor->RecommendFromEmbedding(p.embedding,
                                                 requests[p.request].w_a);
      if (rec.ok()) {
        resp.recommendation = std::move(*rec);
      } else {
        resp.status = rec.status();
      }
    }
    if (obs::MetricsEnabled()) {
      // Each admitted request's latency is its time-in-burst when its
      // batch finishes (the server is synchronous and batched).
      double elapsed = burst_timer.ElapsedMillis();
      for (size_t j = b; j < end; ++j) request_ms->Observe(elapsed);
    }
  }
  return responses;
}

RecommendResponse AdvisorServer::ServeOne(const RecommendRequest& request) {
  return Serve({request})[0];
}

Status AdvisorServer::Reload() {
  obs::TraceSpan span("serve.reload");
  // Counts a failed attempt; the caller must not hold mu_.
  auto fail = [this](Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reload_failures;
    stats_.last_reload_error = status.message();
    return status;
  };
  std::string dir;
  util::SnapshotStoreOptions options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reload_attempts;
    dir = store_dir_;
    options = store_options_;
  }
  if (dir.empty()) {
    return fail(Status::FailedPrecondition(
        "no snapshot store to reload from (open the server with Open)"));
  }
  // Load outside the lock: requests keep being served from the current
  // generation while the new one deserializes.
  uint64_t generation = 0;
  auto loaded = advisor::AutoCe::ResumeFit(dir, options, &generation);
  if (!loaded.ok()) return fail(loaded.status());
  if (util::FaultPoint(util::fault_sites::kServeReload, generation)) {
    return fail(Status::Internal("injected reload fault at generation " +
                                 std::to_string(generation)));
  }
  // Crash window: the new generation is loaded but not installed. A
  // kill here must leave a restarted server on the previous durable
  // generation.
  util::KillPoint(util::kill_sites::kServeReload, generation);
  auto fresh =
      std::make_shared<const advisor::AutoCe>(std::move(*loaded));
  std::lock_guard<std::mutex> lock(mu_);
  advisor_ = std::move(fresh);
  generation_ = generation;
  ++installs_;
  // The cached embeddings belong to the replaced model.
  cache_.clear();
  lru_.clear();
  ++stats_.reloads;
  return Status::OK();
}

uint64_t AdvisorServer::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::shared_ptr<const advisor::AutoCe> AdvisorServer::advisor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return advisor_;
}

ServerStats AdvisorServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace autoce::serve
