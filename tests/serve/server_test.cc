// Determinism and degradation contract of the advisor serving layer
// (DESIGN.md §5.8): batched serving is bit-identical to direct
// Recommend calls at any thread count, batch composition, and arrival
// order; overload sheds to the degraded corpus default instead of
// blocking; hot reload advances the model generation without dropping
// requests and empties the embedding cache; and an online append
// without fine-tuning keeps the prefix embeddings.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "knn/index.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/snapshot.h"

namespace autoce::serve {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equality of the deterministic response fields. `from_cache`
/// is execution metadata (depends on arrival history) and is excluded
/// by contract — see RecommendResponse.
void ExpectSameResponse(const RecommendResponse& a,
                        const RecommendResponse& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.recommendation.model, b.recommendation.model);
  EXPECT_EQ(a.recommendation.degraded, b.recommendation.degraded);
  EXPECT_EQ(a.recommendation.neighbors, b.recommendation.neighbors);
  ASSERT_EQ(a.recommendation.score_vector.size(),
            b.recommendation.score_vector.size());
  for (size_t i = 0; i < a.recommendation.score_vector.size(); ++i) {
    EXPECT_TRUE(SameBits(a.recommendation.score_vector[i],
                         b.recommendation.score_vector[i]))
        << "score " << i;
  }
}

std::vector<advisor::DatasetLabel> SyntheticLabels(size_t n) {
  std::vector<advisor::DatasetLabel> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      labels[i].accuracy_score[m] =
          0.1 + 0.9 * static_cast<double>((i + m) % 7) / 6.0;
      labels[i].efficiency_score[m] =
          0.1 + 0.9 * static_cast<double>((3 * i + 2 * m) % 7) / 6.0;
      labels[i].qerror_mean[m] = 1.0 + static_cast<double>(m);
      labels[i].latency_ms[m] = 1.0 + static_cast<double>(i % 5);
    }
  }
  return labels;
}

advisor::AutoCeConfig TinyConfig() {
  advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.incremental_epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.knn_k = 2;
  return cfg;
}

/// Fresh snapshot directory (removes leftovers from a prior run).
std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  auto store = util::SnapshotStore::Open(dir);
  if (store.ok()) {
    for (uint64_t g : store->ListGenerations()) {
      std::remove(store->GenerationPath(g).c_str());
    }
    std::remove((dir + "/MANIFEST").c_str());
  }
  return dir;
}

/// One fitted advisor shared by the whole suite through Save/Load
/// clones (AutoCe is move-only; serving tests each need their own).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(777);
    data::DatasetGenParams gen;
    gen.min_tables = 1;
    gen.max_tables = 2;
    gen.min_rows = 120;
    gen.max_rows = 250;
    gen.min_columns = 2;
    gen.max_columns = 3;
    auto datasets = data::GenerateCorpus(gen, 12, &rng);

    featgraph::FeatureExtractor fx;
    graphs_ = new std::vector<featgraph::FeatureGraph>();
    for (const auto& d : datasets) graphs_->push_back(fx.Extract(d));
    labels_ = new std::vector<advisor::DatasetLabel>(SyntheticLabels(12));

    advisor::AutoCe advisor(TinyConfig());
    std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                               graphs_->begin() + 9);
    std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                    labels_->begin() + 9);
    ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
    // Per-process file name: ctest runs each test case in its own
    // process, and concurrent writers to one shared path tear the file.
    saved_path_ = new std::string(std::string(::testing::TempDir()) +
                                  "/serve_advisor_" +
                                  std::to_string(::getpid()));
    ASSERT_TRUE(advisor.Save(*saved_path_).ok());
  }

  static void TearDownTestSuite() {
    if (saved_path_ != nullptr) std::remove(saved_path_->c_str());
    delete graphs_;
    delete labels_;
    delete saved_path_;
    graphs_ = nullptr;
    labels_ = nullptr;
    saved_path_ = nullptr;
  }

  static advisor::AutoCe LoadAdvisor() {
    auto loaded = advisor::AutoCe::Load(*saved_path_);
    AUTOCE_CHECK(loaded.ok());
    return std::move(*loaded);
  }

  /// One request per corpus graph, ids 100, 101, ... and cycling
  /// accuracy weights.
  static std::vector<RecommendRequest> AllRequests() {
    const double weights[3] = {0.9, 0.7, 0.5};
    std::vector<RecommendRequest> requests;
    for (size_t i = 0; i < graphs_->size(); ++i) {
      RecommendRequest r;
      r.id = 100 + i;
      r.graph = (*graphs_)[i];
      r.w_a = weights[i % 3];
      requests.push_back(std::move(r));
    }
    return requests;
  }

  static std::vector<featgraph::FeatureGraph>* graphs_;
  static std::vector<advisor::DatasetLabel>* labels_;
  static std::string* saved_path_;
};

std::vector<featgraph::FeatureGraph>* ServerTest::graphs_ = nullptr;
std::vector<advisor::DatasetLabel>* ServerTest::labels_ = nullptr;
std::string* ServerTest::saved_path_ = nullptr;

TEST_F(ServerTest, BatchedServingMatchesDirectRecommend) {
  advisor::AutoCe reference = LoadAdvisor();
  ServerConfig cfg;
  cfg.max_batch = 4;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_FALSE(responses[i].shed);
    auto direct = reference.Recommend(requests[i].graph, requests[i].w_a);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(responses[i].recommendation.model, direct->model);
    EXPECT_EQ(responses[i].recommendation.neighbors, direct->neighbors);
    ASSERT_EQ(responses[i].recommendation.score_vector.size(),
              direct->score_vector.size());
    for (size_t s = 0; s < direct->score_vector.size(); ++s) {
      EXPECT_TRUE(SameBits(responses[i].recommendation.score_vector[s],
                           direct->score_vector[s]));
    }
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.embedded, requests.size());
  EXPECT_EQ(stats.batches, 3u);  // 12 requests / max_batch 4
}

TEST_F(ServerTest, ArrivalOrderAndBatchCompositionDoNotChangeResponses) {
  ServerConfig small;
  small.max_batch = 3;
  AdvisorServer baseline_server(LoadAdvisor(), small);
  auto requests = AllRequests();
  auto baseline = baseline_server.Serve(requests);

  Rng rng(31337);
  for (int round = 0; round < 3; ++round) {
    auto shuffled = requests;
    rng.Shuffle(&shuffled);
    ServerConfig big;
    big.max_batch = 8;
    AdvisorServer server(LoadAdvisor(), big);
    auto responses = server.Serve(shuffled);
    ASSERT_EQ(responses.size(), baseline.size());
    for (const RecommendResponse& got : responses) {
      auto ref = std::find_if(
          baseline.begin(), baseline.end(),
          [&](const RecommendResponse& r) { return r.id == got.id; });
      ASSERT_NE(ref, baseline.end());
      ExpectSameResponse(got, *ref);
    }
  }
}

TEST_F(ServerTest, ResponsesAreBitIdenticalAcrossThreadCounts) {
  util::SetGlobalParallelism(1);
  AdvisorServer baseline_server(LoadAdvisor(), {});
  auto requests = AllRequests();
  auto baseline = baseline_server.Serve(requests);
  for (int threads : {2, 8}) {
    util::SetGlobalParallelism(threads);
    AdvisorServer server(LoadAdvisor(), {});
    auto responses = server.Serve(requests);
    ASSERT_EQ(responses.size(), baseline.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ExpectSameResponse(responses[i], baseline[i]);
    }
  }
  util::SetGlobalParallelism(1);
}

TEST_F(ServerTest, CacheHitReturnsIdenticalBits) {
  AdvisorServer server(LoadAdvisor(), {});
  RecommendRequest request;
  request.id = 7;
  request.graph = (*graphs_)[0];
  request.w_a = 0.9;
  RecommendResponse first = server.ServeOne(request);
  RecommendResponse second = server.ServeOne(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  ExpectSameResponse(first, second);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.embedded, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(ServerTest, CacheEvictsLeastRecentlyUsed) {
  ServerConfig cfg;
  cfg.cache_capacity = 2;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  // Graphs 0, 1, 2 in turn: capacity 2 evicts graph 0, so a repeat of
  // graph 0 misses while a repeat of graph 2 hits.
  server.ServeOne(requests[0]);
  server.ServeOne(requests[1]);
  server.ServeOne(requests[2]);
  EXPECT_FALSE(server.ServeOne(requests[0]).from_cache);
  EXPECT_TRUE(server.ServeOne(requests[2]).from_cache);
}

TEST_F(ServerTest, OverloadShedsToDegradedCorpusDefault) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  requests.resize(5);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_EQ(responses[i].shed, i >= 2) << "request " << i;
    for (double s : responses[i].recommendation.score_vector) {
      EXPECT_TRUE(std::isfinite(s));
    }
    if (i >= 2) {
      EXPECT_TRUE(responses[i].recommendation.degraded);
      EXPECT_EQ(responses[i].recommendation.degraded_reason,
                "admission queue overflow");
    }
  }
  EXPECT_EQ(server.stats().shed, 3u);

  // The shed pattern and every response bit reproduce on a fresh server.
  AdvisorServer again(LoadAdvisor(), cfg);
  auto repeat = again.Serve(requests);
  for (size_t i = 0; i < 5; ++i) ExpectSameResponse(repeat[i], responses[i]);
}

TEST_F(ServerTest, ExpiredDeadlineShedsAtAdmission) {
  // Simulated clock: +5 ms per look. Serve reads it once at burst
  // start and once before admission, so admission sees 5 ms elapsed.
  ServerConfig cfg;
  cfg.request_deadline_ms = 4.0;
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 0.005;
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);

  auto requests = AllRequests();
  requests.resize(3);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_TRUE(responses[i].shed) << i;
    EXPECT_TRUE(responses[i].recommendation.degraded) << i;
    EXPECT_EQ(responses[i].recommendation.degraded_reason,
              "request deadline expired at admission")
        << i;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.deadline_shed, 3u);

  // A looser deadline on the same clock admits and serves the burst.
  cfg.request_deadline_ms = 1000.0;
  AdvisorServer loose(LoadAdvisor(), cfg);
  for (const RecommendResponse& r : loose.Serve(requests)) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_FALSE(r.shed);
    EXPECT_FALSE(r.recommendation.degraded);
  }
  EXPECT_EQ(loose.stats().deadline_shed, 0u);
}

TEST_F(ServerTest, DeadlineExpiringMidBurstShedsLaterBatches) {
  // +5 ms per look: burst start, admission (5 ms), first batch
  // (10 ms), second batch (15 ms). A 12 ms deadline admits everything,
  // serves the first batch, and sheds the second — late answers are
  // worthless, so the server refuses to burn a forward on them.
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.request_deadline_ms = 12.0;
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 0.005;
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);

  auto requests = AllRequests();
  requests.resize(4);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(responses[i].shed) << i;
    EXPECT_FALSE(responses[i].recommendation.degraded) << i;
  }
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_TRUE(responses[i].shed) << i;
    EXPECT_EQ(responses[i].recommendation.degraded_reason,
              "request deadline expired before batch")
        << i;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.deadline_shed, 2u);

  // The same burst against the same simulated clock reproduces bit for
  // bit — deadline shedding is deterministic once the clock is.
  double again_s = 0.0;
  ServerConfig cfg2 = cfg;
  cfg2.clock = [&again_s] {
    again_s += 0.005;
    return again_s;
  };
  AdvisorServer again(LoadAdvisor(), cfg2);
  auto repeat = again.Serve(requests);
  for (size_t i = 0; i < 4; ++i) ExpectSameResponse(repeat[i], responses[i]);
}

TEST_F(ServerTest, NoDeadlineMeansNoDeadlineShedding) {
  ServerConfig cfg;  // request_deadline_ms = 0: off
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 3600.0;  // an hour per look
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  requests.resize(3);
  auto responses = server.Serve(requests);
  for (const auto& r : responses) {
    EXPECT_FALSE(r.shed);
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_EQ(server.stats().deadline_shed, 0u);
}

TEST_F(ServerTest, InvalidGraphIsRejectedWhileOthersAreServed) {
  AdvisorServer server(LoadAdvisor(), {});
  auto requests = AllRequests();
  requests.resize(3);
  // Wrong vertex dimension: fails featgraph::ValidateGraph at admission.
  requests[1].graph.vertices = nn::Matrix(2, 1);
  auto responses = server.Serve(requests);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(server.stats().invalid, 1u);
}

TEST_F(ServerTest, ReloadAdvancesGenerationAndServesNewModel) {
  std::string dir = TempStoreDir("serve_reload_gen");
  advisor::AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());

  auto server = AdvisorServer::Open(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint64_t gen_before = (*server)->generation();
  EXPECT_GT(gen_before, 0u);

  // Warm the cache under the old model.
  RecommendRequest request;
  request.id = 1;
  request.graph = (*graphs_)[10];
  request.w_a = 0.7;
  ASSERT_TRUE((*server)->ServeOne(request).status.ok());
  EXPECT_TRUE((*server)->ServeOne(request).from_cache);

  // The training job commits a new generation through an online update;
  // the server keeps serving the old one until Reload.
  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());
  EXPECT_EQ((*server)->generation(), gen_before);

  ASSERT_TRUE((*server)->Reload().ok());
  EXPECT_GT((*server)->generation(), gen_before);
  EXPECT_EQ((*server)->stats().reloads, 1u);
  EXPECT_EQ((*server)->stats().reload_attempts, 1u);
  EXPECT_EQ((*server)->stats().reload_failures, 0u);
  EXPECT_TRUE((*server)->stats().last_reload_error.empty());
  EXPECT_EQ((*server)->advisor()->ModelDigest(), advisor.ModelDigest());

  // Responses now match the updated advisor bit-for-bit, and the
  // repeated request is embedded afresh: the reload emptied the cache.
  RecommendResponse response = (*server)->ServeOne(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_FALSE(response.from_cache);
  EXPECT_EQ(response.model_generation, (*server)->generation());
  auto direct = advisor.Recommend(request.graph, request.w_a);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.recommendation.model, direct->model);
  EXPECT_EQ(response.recommendation.neighbors, direct->neighbors);
  for (size_t s = 0; s < direct->score_vector.size(); ++s) {
    EXPECT_TRUE(SameBits(response.recommendation.score_vector[s],
                         direct->score_vector[s]));
  }

  // A fresh server opened on the new generation answers the same.
  auto fresh = AdvisorServer::Open(dir);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  RecommendResponse fresh_response = (*fresh)->ServeOne(request);
  EXPECT_EQ(fresh_response.model_generation, response.model_generation);
  ExpectSameResponse(response, fresh_response);
}

TEST_F(ServerTest, ReloadRacingAPinnedBurstNeverServesOldEmbeddings) {
  std::string dir = TempStoreDir("serve_reload_race");
  advisor::AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
  auto requests = AllRequests();

  // Serves `requests` on a fresh server over the newest generation.
  auto fresh_responses = [&] {
    auto fresh = AdvisorServer::Open(dir);
    AUTOCE_CHECK(fresh.ok());
    return (*fresh)->Serve(requests);
  };
  auto expect_fresh = [&](const std::vector<RecommendResponse>& got) {
    auto want = fresh_responses();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].model_generation, want[i].model_generation);
      ExpectSameResponse(got[i], want[i]);
    }
  };

  // Deterministic interleaving: the clock hook (called without the
  // server lock) reloads after the first of twelve one-request batches
  // has cached an old-model embedding. The rest of the pinned burst
  // must neither read nor fill the new model's cache.
  {
    ServerConfig cfg;
    cfg.max_batch = 1;
    // A deadline that never expires on the frozen clock, so Serve looks
    // at the clock at burst start, admission and every batch start.
    cfg.request_deadline_ms = 1000.0;
    AdvisorServer* target = nullptr;
    int looks = 0;
    cfg.clock = [&] {
      // Looks: burst start, admission, batch 0, batch 1 (reload here).
      if (++looks == 4) AUTOCE_CHECK(target->Reload().ok());
      return 0.0;
    };
    auto opened = AdvisorServer::Open(dir, cfg);
    ASSERT_TRUE(opened.ok());
    target = opened->get();
    uint64_t old_generation = target->generation();
    ASSERT_TRUE(
        advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());

    auto pinned = target->Serve(requests);
    for (const RecommendResponse& r : pinned) {
      EXPECT_EQ(r.model_generation, old_generation);
    }
    ASSERT_GT(target->generation(), old_generation);
    auto after = target->Serve(requests);
    for (const RecommendResponse& r : after) {
      EXPECT_FALSE(r.from_cache) << "request " << r.id;
    }
    expect_fresh(after);
  }

  // Free-running race: one thread serves bursts while another reloads;
  // whatever the interleaving, later bursts answer like a fresh server.
  auto opened = AdvisorServer::Open(dir);
  ASSERT_TRUE(opened.ok());
  AdvisorServer& server = **opened;
  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[10], (*labels_)[10]).ok());
  std::thread serving([&] {
    for (int burst = 0; burst < 8; ++burst) server.Serve(requests);
  });
  std::thread reloading([&] { AUTOCE_CHECK(server.Reload().ok()); });
  serving.join();
  reloading.join();
  expect_fresh(server.Serve(requests));
  expect_fresh(server.Serve(requests));
}

TEST_F(ServerTest, ReloadWithoutStoreFailsAndKeepsServing) {
  AdvisorServer server(LoadAdvisor(), {});
  Status st = server.Reload();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.generation(), 0u);
  RecommendRequest request;
  request.graph = (*graphs_)[0];
  request.w_a = 0.9;
  EXPECT_TRUE(server.ServeOne(request).status.ok());
}

/// Every `<metric>{instance="n"} value` line of a Prometheus export,
/// as n -> value.
std::map<std::string, std::string> InstanceSeries(const std::string& text,
                                                  const std::string& metric) {
  std::map<std::string, std::string> series;
  const std::string prefix = metric + "{instance=\"";
  size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    if (pos > 0 && text[pos - 1] != '\n') {
      pos += prefix.size();
      continue;
    }
    size_t label_end = text.find("\"} ", pos);
    size_t line_end = text.find('\n', pos);
    series[text.substr(pos + prefix.size(),
                       label_end - pos - prefix.size())] =
        text.substr(label_end + 3, line_end - label_end - 3);
    pos = line_end;
  }
  return series;
}

TEST_F(ServerTest, MetricsCountersMatchServerStats) {
  // ServerStats is the one count of every serving event: while the
  // server lives the export reads it under the server's `instance`
  // label, and its destruction folds the final counts into the
  // unlabelled process totals (DESIGN.md §5.9).
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Enable();
  registry.Reset();

  ServerStats stats;
  {
    ServerConfig cfg;
    cfg.queue_capacity = 2;
    AdvisorServer server(LoadAdvisor(), cfg);
    auto requests = AllRequests();
    requests.resize(5);
    auto responses = server.Serve(requests);
    ASSERT_EQ(responses.size(), 5u);
    // Repeat request 0: a cache hit on the second pass.
    EXPECT_TRUE(server.ServeOne(requests[0]).from_cache);
    Status reload_status = server.Reload();  // no store: counted as failure
    EXPECT_FALSE(reload_status.ok());

    stats = server.stats();
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_EQ(stats.admitted, 3u);
    EXPECT_EQ(stats.shed, 3u);
    EXPECT_EQ(stats.cache_hits, 1u);
    // The no-store precondition rejection counts as an attempted, failed
    // reload, and its message is retained as the last reload error.
    EXPECT_EQ(stats.reload_attempts, 1u);
    EXPECT_EQ(stats.reload_failures, 1u);
    EXPECT_EQ(stats.last_reload_error, reload_status.message());

    std::string live = registry.ExportPrometheus();
    auto requests_series = InstanceSeries(live, "serve_requests_total");
    ASSERT_EQ(requests_series.size(), 1u) << live;
    const std::string label =
        "{instance=\"" + requests_series.begin()->first + "\"} ";
    for (const obs::StatsField& field : ExportedFields(stats)) {
      std::string line = std::string("serve_") + field.name + "_total" +
                         label + std::to_string(field.value) + "\n";
      EXPECT_NE(live.find(line), std::string::npos) << line << live;
    }
    // Nothing is folded into the process totals while the server lives.
    EXPECT_EQ(live.find("\nserve_requests_total 6\n"), std::string::npos)
        << live;
  }

  std::string text = registry.ExportPrometheus();
  registry.Disable();
  EXPECT_TRUE(InstanceSeries(text, "serve_requests_total").empty()) << text;
  auto expect_line = [&](const std::string& line) {
    EXPECT_NE(text.find(line + "\n"), std::string::npos) << line << "\n"
                                                          << text;
  };
  expect_line("serve_requests_total " + std::to_string(stats.requests));
  expect_line("serve_admitted_total " + std::to_string(stats.requests -
                                                       stats.shed));
  expect_line("serve_shed_total " + std::to_string(stats.shed));
  expect_line("serve_cache_hits_total " + std::to_string(stats.cache_hits));
  expect_line("serve_embedded_total " + std::to_string(stats.embedded));
  expect_line("serve_batches_total " + std::to_string(stats.batches));
  expect_line("serve_invalid_total 0");
  expect_line("serve_reloads_total " + std::to_string(stats.reloads));
  expect_line("serve_reload_attempts_total " +
              std::to_string(stats.reload_attempts));
  expect_line("serve_reload_failures_total " +
              std::to_string(stats.reload_failures));
  // Every admitted or shed request lands one latency observation.
  expect_line("serve_request_ms_count " + std::to_string(stats.requests));
}

TEST_F(ServerTest, MetricsOnAndOffServeTheSameBits) {
  // Instruments only observe: a server with the metrics sink on
  // answers every request with the same bits as one with it dormant.
  auto& registry = obs::MetricsRegistry::Instance();
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.cache_capacity = 0;  // every request pays its embedding
  auto requests = AllRequests();

  registry.Disable();
  std::vector<RecommendResponse> off;
  {
    AdvisorServer dormant(LoadAdvisor(), cfg);
    off = dormant.Serve(requests);
  }

  registry.Enable();
  registry.Reset();
  AdvisorServer metered(LoadAdvisor(), cfg);
  auto on = metered.Serve(requests);
  std::string live = registry.ExportPrometheus();
  registry.Disable();

  auto served = InstanceSeries(live, "serve_requests_total");
  ASSERT_EQ(served.size(), 1u) << live;
  EXPECT_EQ(served.begin()->second, std::to_string(requests.size()));
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    EXPECT_TRUE(on[i].status.ok()) << on[i].status.ToString();
    ExpectSameResponse(on[i], off[i]);
  }
}

TEST_F(ServerTest, TwoServersExportSeparateInstanceSeries) {
  // Two servers in one process: each exports its own counts under its
  // own `instance` label, and teardown sums them into the totals.
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Enable();
  registry.Reset();
  auto requests = AllRequests();
  {
    AdvisorServer one(LoadAdvisor(), {});
    AdvisorServer three(LoadAdvisor(), {});
    one.ServeOne(requests[0]);
    three.Serve({requests[1], requests[2]});
    three.ServeOne(requests[2]);  // a cache hit

    std::string live = registry.ExportPrometheus();
    auto served = InstanceSeries(live, "serve_requests_total");
    ASSERT_EQ(served.size(), 2u) << live;
    std::map<std::string, std::string> by_count;  // count -> instance
    for (const auto& [instance, value] : served) by_count[value] = instance;
    ASSERT_EQ(by_count.count("1"), 1u) << live;
    ASSERT_EQ(by_count.count("3"), 1u) << live;
    auto embedded = InstanceSeries(live, "serve_embedded_total");
    EXPECT_EQ(embedded[by_count["1"]], "1");
    EXPECT_EQ(embedded[by_count["3"]], "2");
    auto hits = InstanceSeries(live, "serve_cache_hits_total");
    EXPECT_EQ(hits[by_count["1"]], "0");
    EXPECT_EQ(hits[by_count["3"]], "1");
  }
  std::string text = registry.ExportPrometheus();
  registry.Disable();
  EXPECT_NE(text.find("\nserve_requests_total 4\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nserve_embedded_total 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nserve_cache_hits_total 1\n"), std::string::npos)
      << text;
}

TEST_F(ServerTest, OnlineAppendWithoutFineTuneKeepsPrefixEmbeddings) {
  // online_update_epochs = 0: AddLabeledSample appends to the RCS
  // without touching the encoder, so re-embedding the RCS reproduces
  // the prefix embeddings byte-for-byte and adds the new member's.
  advisor::AutoCeConfig cfg = TinyConfig();
  cfg.online_update_epochs = 0;
  advisor::AutoCe advisor(cfg);
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
  const knn::Index& index = advisor.rcs_index();
  std::vector<std::vector<double>> before;
  for (size_t i = 0; i < index.size(); ++i) {
    before.emplace_back(index.Point(i).begin(), index.Point(i).end());
  }

  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());
  const knn::Index& after = advisor.rcs_index();
  ASSERT_EQ(after.size(), before.size() + 1);
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after.Point(i).size(), before[i].size());
    for (size_t d = 0; d < before[i].size(); ++d) {
      EXPECT_TRUE(SameBits(after.Point(i)[d], before[i][d])) << "member " << i;
    }
  }
  std::vector<double> fresh = advisor.Embed((*graphs_)[9]);
  std::span<const double> appended = after.Point(after.size() - 1);
  ASSERT_EQ(appended.size(), fresh.size());
  for (size_t d = 0; d < fresh.size(); ++d) {
    EXPECT_TRUE(SameBits(appended[d], fresh[d]));
  }
  EXPECT_EQ(advisor.DistanceToRcs((*graphs_)[9]), 0.0);
}

}  // namespace
}  // namespace autoce::serve
