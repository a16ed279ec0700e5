#ifndef AUTOCE_SERVE_SERVER_H_
#define AUTOCE_SERVE_SERVER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/autoce.h"
#include "obs/metrics.h"
#include "util/budget.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace autoce::serve {

/// Configuration of the embedded advisor service.
struct ServerConfig {
  /// Coalesce at most this many admitted requests into one batched GIN
  /// forward (GinEncoder::EmbedBatch).
  size_t max_batch = 8;
  /// Admission bound per Serve call: requests beyond this many are shed
  /// to the degraded corpus-default recommendation instead of queueing.
  size_t queue_capacity = 64;
  /// Entries held by the fingerprint-keyed LRU embedding cache.
  size_t cache_capacity = 128;
  /// Per-request deadline in ms (0 = none), measured from the start of
  /// the request's Serve burst. A request whose deadline has already
  /// passed when its turn comes (at admission, or when its batch starts
  /// after earlier batches consumed the time) is shed to the degraded
  /// corpus default instead of embedded — late answers are worthless
  /// to a query optimizer waiting on a plan.
  double request_deadline_ms = 0.0;
  /// Monotonic seconds source for deadline checks (steady clock when
  /// null). Deadline shedding under the real clock is load-dependent —
  /// execution metadata like `from_cache`, excluded from determinism
  /// digests; tests inject a clock to make it reproducible.
  util::ClockFn clock;
};

/// One recommendation request. `id` is echoed back so callers can match
/// responses after shuffled arrival.
struct RecommendRequest {
  uint64_t id = 0;
  featgraph::FeatureGraph graph;
  double w_a = 0.5;
};

/// The server's answer to one request.
///
/// Determinism contract: for a fixed model generation, `status`,
/// `recommendation`, and `shed` are pure functions of the request
/// content — the same at any `AUTOCE_THREADS`, any batch composition,
/// and any arrival order. `from_cache` is execution metadata (it
/// depends on what arrived earlier) and is excluded from determinism
/// digests; the cached bits themselves are identical to a fresh
/// forward, so it never influences the recommendation.
struct RecommendResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  advisor::AutoCe::Recommendation recommendation;
  /// True when the request was shed (admission overflow, injected
  /// `serve.admission` fault, or an expired deadline); the
  /// recommendation is then the degraded corpus default.
  bool shed = false;
  /// True when the embedding came from the LRU cache.
  bool from_cache = false;
  /// Snapshot generation of the model that answered.
  uint64_t model_generation = 0;
};

/// Cumulative counters since construction.
struct ServerStats {
  uint64_t requests = 0;
  uint64_t admitted = 0;      ///< passed the admission gate
  uint64_t batches = 0;       ///< batched forwards executed
  uint64_t embedded = 0;      ///< graphs embedded (cache misses)
  uint64_t cache_hits = 0;
  uint64_t shed = 0;
  uint64_t deadline_shed = 0;  ///< subset of `shed` caused by deadlines
  uint64_t invalid = 0;       ///< requests rejected by graph validation
  uint64_t reloads = 0;       ///< successful hot reloads
  uint64_t reload_attempts = 0;  ///< Reload() calls, successful or not
  uint64_t reload_failures = 0;
  /// Message of the most recent failed reload; sticky across later
  /// successes so operators can see what the last failure was
  /// (reload_failures says whether there ever was one, reloads whether
  /// a success came after).
  std::string last_reload_error;
};

/// The server's exported fields (`serve.*`, obs::StatsExport).
inline std::vector<obs::StatsField> ExportedFields(const ServerStats& s) {
  return {{"requests", s.requests},     {"admitted", s.admitted},
          {"batches", s.batches},       {"embedded", s.embedded},
          {"cache_hits", s.cache_hits}, {"shed", s.shed},
          {"deadline_shed", s.deadline_shed},
          {"invalid", s.invalid},       {"reloads", s.reloads},
          {"reload_attempts", s.reload_attempts},
          {"reload_failures", s.reload_failures}};
}

/// \brief Embedded deterministic advisor service (DESIGN.md §5.8).
///
/// Requests pass a bounded admission gate, are coalesced into batches
/// of at most `max_batch`, embedded in one stacked GIN forward per
/// batch (consulting the LRU embedding cache first), and answered
/// through the shared `knn::Index` the advisor maintains over its RCS.
///
/// Overload (admission beyond `queue_capacity`, or an injected
/// `serve.admission` fault) degrades to the corpus-default
/// recommendation — every request is answered, none blocks.
///
/// `Reload` hot-swaps the advisor to the newest good snapshot
/// generation of an attached store without dropping requests: in-flight
/// batches keep the model they started with, and a failed reload
/// (corrupt snapshot, injected `serve.reload` fault, or a crash at the
/// `serve.reload` kill point) leaves the previous generation serving.
/// The embedding cache belongs to the installed model: it empties when
/// `Reload` installs a new one, and a burst still pinned to an older
/// model neither reads nor fills it.
class AdvisorServer {
 public:
  /// Wraps a fitted advisor. `Reload` needs a store, so it fails on a
  /// server built this way; use Open to serve a snapshot store.
  explicit AdvisorServer(advisor::AutoCe advisor, ServerConfig config = {});

  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;

  /// Opens a server over the newest good snapshot generation in `dir`
  /// (resuming an interrupted fit if the snapshot is mid-training) and
  /// attaches the store for hot reloads.
  static Result<std::unique_ptr<AdvisorServer>> Open(
      const std::string& dir, ServerConfig config = {},
      util::SnapshotStoreOptions options = {});

  /// Serves a burst of requests: admission in arrival order, batched
  /// embedding, indexed KNN. Responses are returned in request order.
  std::vector<RecommendResponse> Serve(
      const std::vector<RecommendRequest>& requests);

  /// Convenience single-request entry point.
  RecommendResponse ServeOne(const RecommendRequest& request);

  /// Hot-reloads the newest good snapshot generation from the store the
  /// server was opened on. On any failure the previous model keeps serving and the
  /// error is returned.
  Status Reload();

  /// Snapshot generation currently serving (0 when constructed from an
  /// in-memory advisor).
  uint64_t generation() const;

  /// The advisor currently serving. The pointer stays valid across
  /// reloads (the swapped-out model lives as long as someone holds it).
  std::shared_ptr<const advisor::AutoCe> advisor() const;

  ServerStats stats() const;

 private:
  struct CacheEntry {
    std::vector<double> embedding;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// Looks up `key`, refreshing recency. Caller holds mu_.
  const CacheEntry* CacheLookup(uint64_t key);
  /// Inserts `key`, evicting the least recent entry when over capacity.
  /// Caller holds mu_.
  void CacheInsert(uint64_t key, std::vector<double> embedding);

  ServerConfig config_;
  std::string store_dir_;
  util::SnapshotStoreOptions store_options_;

  mutable std::mutex mu_;
  std::shared_ptr<const advisor::AutoCe> advisor_;  // guarded by mu_
  uint64_t generation_ = 0;                         // guarded by mu_
  /// Bumped by every install of advisor_; the cache holds embeddings of
  /// install number `installs_` only. Not the advisor pointer (a freed
  /// address can be reused) nor the generation (a rebuilt store
  /// restarts its numbering).
  uint64_t installs_ = 0;                           // guarded by mu_
  std::unordered_map<uint64_t, CacheEntry> cache_;  // guarded by mu_
  std::list<uint64_t> lru_;  // most recent at front; guarded by mu_
  ServerStats stats_;        // guarded by mu_
  obs::StatsExport stats_export_{"serve",
                                 [this] { return ExportedFields(stats()); }};
};

}  // namespace autoce::serve

#endif  // AUTOCE_SERVE_SERVER_H_
