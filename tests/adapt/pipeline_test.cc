// Behavior contract of the adaptation pipeline (DESIGN.md §5.11):
// drained OOD items are labeled, Mixup-augmented, trained, committed
// as snapshot generations, and picked up by the server via hot reload;
// a restarted pipeline fed the same stream converges to the same model
// digest; label faults degrade to sentinel scoring, train faults
// quarantine, commit faults roll back — and none of them wedge the
// loop.
#include "adapt/pipeline.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "util/fault.h"
#include "util/snapshot.h"

namespace autoce::adapt {
namespace {

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

/// A fast labeler that is a pure function of the content-derived seed —
/// the same property the testbed labeler has, minus the minutes of
/// model training.
Labeler SyntheticLabeler() {
  return [](const data::Dataset&,
            uint64_t seed) -> Result<advisor::DatasetLabel> {
    Rng rng(seed);
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.efficiency_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.qerror_mean[m] = 1.0 + static_cast<double>(m);
      label.latency_ms[m] = 1.0 + rng.Uniform();
    }
    return label;
  };
}

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  auto store = util::SnapshotStore::Open(dir);
  if (store.ok()) {
    for (uint64_t g : store->ListGenerations()) {
      std::remove(store->GenerationPath(g).c_str());
    }
    std::remove((dir + "/MANIFEST").c_str());
    std::remove((dir + "/QUARANTINE.log").c_str());
  }
  return dir;
}

void CopyFile(const std::string& src, const std::string& dst) {
  FILE* in = std::fopen(src.c_str(), "rb");
  ASSERT_NE(in, nullptr) << src;
  FILE* out = std::fopen(dst.c_str(), "wb");
  ASSERT_NE(out, nullptr) << dst;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  ASSERT_EQ(std::fclose(out), 0);
}

/// One fitted snapshot store shared by the suite; each test clones it
/// so stores never interfere (and ctest runs cases in parallel).
class PipelineTest : public ::testing::Test {
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
    auto corpus = data::GenerateCorpus(gen, 12, &rng);

    featgraph::FeatureExtractor fx;
    auto labels = SyntheticLabels(9);
    std::vector<featgraph::FeatureGraph> train;
    for (size_t i = 0; i < 9; ++i) train.push_back(fx.Extract(corpus[i]));

    // Feed stream: the three held-out corpus members plus four datasets
    // from a differently-seeded generator.
    feed_datasets_ = new std::vector<data::Dataset>(corpus.begin() + 9,
                                                    corpus.end());
    Rng feed_rng(888);
    for (auto& d : data::GenerateCorpus(gen, 4, &feed_rng)) {
      feed_datasets_->push_back(std::move(d));
    }
    feed_graphs_ = new std::vector<featgraph::FeatureGraph>();
    for (const auto& d : *feed_datasets_) {
      feed_graphs_->push_back(fx.Extract(d));
    }

    template_dir_ = new std::string(
        TempStoreDir("adapt_template_" + std::to_string(::getpid())));
    advisor::AutoCe advisor(TinyConfig());
    ASSERT_TRUE(advisor.EnableSnapshots(*template_dir_).ok());
    ASSERT_TRUE(advisor.Fit(train, labels).ok());
  }

  static void TearDownTestSuite() {
    delete feed_datasets_;
    delete feed_graphs_;
    delete template_dir_;
    feed_datasets_ = nullptr;
    feed_graphs_ = nullptr;
    template_dir_ = nullptr;
  }

  /// Clones the fitted template store into a fresh directory.
  static std::string CloneTemplate(const std::string& name) {
    std::string dst =
        TempStoreDir(name + "_" + std::to_string(::getpid()));
    auto src = util::SnapshotStore::Open(*template_dir_);
    auto dst_store = util::SnapshotStore::Open(dst);  // creates the dir
    EXPECT_TRUE(src.ok() && dst_store.ok());
    for (uint64_t g : src->ListGenerations()) {
      CopyFile(src->GenerationPath(g), dst_store->GenerationPath(g));
    }
    CopyFile(*template_dir_ + "/MANIFEST", dst + "/MANIFEST");
    return dst;
  }

  struct Rig {
    std::unique_ptr<serve::AdvisorServer> server;
    std::unique_ptr<AdaptationPipeline> pipeline;
  };

  static Rig OpenRig(const std::string& dir, AdaptationConfig config = {}) {
    Rig rig;
    auto server = serve::AdvisorServer::Open(dir);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.server = std::move(*server);
    auto pipeline =
        AdaptationPipeline::Open(dir, rig.server.get(), std::move(config));
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    rig.pipeline = std::move(*pipeline);
    rig.pipeline->set_labeler(SyntheticLabeler());
    rig.pipeline->set_sleep_fn([](double) {});
    return rig;
  }

  /// Offers feed item `i` straight to the queue (bypassing drift
  /// detection, which has its own test) with a distinct distance.
  static Offered OfferFeed(AdaptationPipeline* pipeline, size_t i) {
    return pipeline->queue().Offer((*feed_datasets_)[i], (*feed_graphs_)[i],
                                   1.0 + static_cast<double>(i));
  }

  static std::vector<data::Dataset>* feed_datasets_;
  static std::vector<featgraph::FeatureGraph>* feed_graphs_;
  static std::string* template_dir_;
};

std::vector<data::Dataset>* PipelineTest::feed_datasets_ = nullptr;
std::vector<featgraph::FeatureGraph>* PipelineTest::feed_graphs_ = nullptr;
std::string* PipelineTest::template_dir_ = nullptr;

TEST_F(PipelineTest, AppliesUnitsCommitsGenerationsAndReloadsServer) {
  std::string dir = CloneTemplate("adapt_apply");
  AdaptationConfig config;
  config.batch_size = 8;
  Rig rig = OpenRig(dir, config);
  uint64_t gen_before = rig.server->generation();
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  EXPECT_EQ(OfferFeed(rig.pipeline.get(), 0), Offered::kAdmitted);
  EXPECT_EQ(OfferFeed(rig.pipeline.get(), 1), Offered::kAdmitted);
  auto report = rig.pipeline->RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->drained, 2u);
  EXPECT_EQ(report->applied, 2u);
  EXPECT_TRUE(report->reload_attempted);
  EXPECT_TRUE(report->reload_ok);
  EXPECT_GT(report->generation, gen_before);

  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.items_applied, 2u);
  EXPECT_EQ(stats.labels_ok, 2u);
  EXPECT_EQ(stats.generations_committed, 2u);
  EXPECT_EQ(stats.reloads_triggered, 1u);
  EXPECT_EQ(stats.reload_failures, 0u);

  // Each trustworthy unit is the item plus its Mixup interpolation.
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 4);

  // The server reloaded to the committed generation: same bits as the
  // trainer, and it keeps answering.
  EXPECT_GT(rig.server->generation(), gen_before);
  EXPECT_EQ(rig.server->advisor()->ModelDigest(),
            rig.pipeline->TrainerDigest());
  EXPECT_EQ(rig.server->advisor()->RcsSize(), rcs_before + 4);
}

TEST_F(PipelineTest, RestartedPipelineConvergesToSameDigest) {
  // Uninterrupted baseline: all five items in one pipeline lifetime.
  std::string dir_a = CloneTemplate("adapt_baseline");
  {
    Rig rig = OpenRig(dir_a);
    for (size_t i = 0; i < 5; ++i) OfferFeed(rig.pipeline.get(), i);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  }
  auto baseline = AdaptationPipeline::Open(dir_a, nullptr);
  ASSERT_TRUE(baseline.ok());
  uint64_t digest_a = (*baseline)->TrainerDigest();

  // Restarted run: two items, pipeline torn down (the in-memory queue
  // dies with it), a new pipeline replays the whole stream.
  std::string dir_b = CloneTemplate("adapt_restart");
  {
    Rig rig = OpenRig(dir_b);
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 1);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  }
  {
    Rig rig = OpenRig(dir_b);
    for (size_t i = 0; i < 5; ++i) OfferFeed(rig.pipeline.get(), i);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
    // The two already-committed items were consumed by replay dedup.
    EXPECT_EQ(rig.pipeline->stats().items_deduped, 2u);
    EXPECT_EQ(rig.pipeline->stats().items_applied, 3u);
    EXPECT_EQ(rig.pipeline->TrainerDigest(), digest_a);
  }
}

TEST_F(PipelineTest, MaybeEnqueueChecksServingDriftThreshold) {
  std::string dir = CloneTemplate("adapt_ood");
  Rig rig = OpenRig(dir);
  auto advisor = rig.server->advisor();

  // An RCS member is at distance 0: never OOD.
  EXPECT_EQ(rig.pipeline->MaybeEnqueue(
                (*feed_datasets_)[0], advisor->rcs_graphs()[0]),
            Offered::kNotOod);

  // Every feed graph agrees with the serving advisor's own verdict, and
  // a re-offer of an enqueued graph dedups.
  for (size_t i = 0; i < feed_graphs_->size(); ++i) {
    bool ood = advisor->IsOutOfDistribution((*feed_graphs_)[i]);
    Offered offered =
        rig.pipeline->MaybeEnqueue((*feed_datasets_)[i], (*feed_graphs_)[i]);
    if (ood) {
      EXPECT_EQ(offered, Offered::kAdmitted) << i;
      EXPECT_EQ(rig.pipeline->MaybeEnqueue((*feed_datasets_)[i],
                                           (*feed_graphs_)[i]),
                Offered::kDuplicate)
          << i;
    } else {
      EXPECT_EQ(offered, Offered::kNotOod) << i;
    }
  }
  EXPECT_EQ(rig.pipeline->queue().depth(), rig.pipeline->queue().stats().admitted);
}

TEST_F(PipelineTest, LabelFaultExhaustionDegradesToSentinel) {
  std::string dir = CloneTemplate("adapt_label_fault");
  std::vector<double> sleeps;
  Rig rig = OpenRig(dir);
  rig.pipeline->set_sleep_fn([&](double ms) { sleeps.push_back(ms); });
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  auto& injection = util::FaultInjection::Instance();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptLabel) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every attempt faulted -> sentinel label, but the item is still
  // applied (the RCS learns the dataset exists even when labeling is
  // down) WITHOUT a Mixup partner: a degraded label is never smeared.
  EXPECT_EQ(report->sentinel, 1u);
  EXPECT_EQ(report->applied, 1u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_sentinel, 1u);
  EXPECT_EQ(stats.labels_ok, 0u);
  EXPECT_EQ(stats.label_retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 1);

  // The sentinel label is the all-failed floor, visible after reload.
  const advisor::DatasetLabel& last = rig.server->advisor()->rcs_labels().back();
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    EXPECT_TRUE(last.failed[m]);
  }

  // Backoff ran between attempts, bounded by the jittered exponential
  // (10 ms initial, doubling, up to +50% jitter).
  ASSERT_EQ(sleeps.size(), 2u);
  for (size_t a = 0; a < sleeps.size(); ++a) {
    double base = 10.0;
    for (size_t i = 0; i < a; ++i) base *= 2.0;
    EXPECT_GE(sleeps[a], base);
    EXPECT_LE(sleeps[a], base * 1.5);
  }
  EXPECT_GT(stats.backoff_ms_total, 0.0);
}

TEST_F(PipelineTest, BackoffScheduleIsDeterministic) {
  auto run = [&](const std::string& name) {
    std::string dir = CloneTemplate(name);
    std::vector<double> sleeps;
    Rig rig = OpenRig(dir);
    rig.pipeline->set_sleep_fn([&](double ms) { sleeps.push_back(ms); });
    auto& injection = util::FaultInjection::Instance();
    EXPECT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptLabel) +
                               ":1.0")
                    .ok());
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 1);
    EXPECT_TRUE(rig.pipeline->DrainAll().ok());
    injection.Disable();
    return sleeps;
  };
  EXPECT_EQ(run("adapt_backoff_a"), run("adapt_backoff_b"));
}

TEST_F(PipelineTest, TrainFaultExhaustionQuarantines) {
  std::string dir = CloneTemplate("adapt_train_fault");
  Rig rig = OpenRig(dir);
  uint64_t digest_before = rig.pipeline->TrainerDigest();
  uint64_t gen_before = rig.server->generation();

  auto& injection = util::FaultInjection::Instance();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptTrain) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Both attempts faulted before touching the trainer: the unit is
  // quarantined and nothing moved.
  EXPECT_EQ(report->quarantined, 1u);
  EXPECT_EQ(report->applied, 0u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_quarantined, 1u);
  EXPECT_EQ(stats.train_retries, 1u);  // 2 attempts = 1 retry
  EXPECT_EQ(rig.pipeline->TrainerDigest(), digest_before);
  EXPECT_EQ(rig.server->generation(), gen_before);
  ASSERT_EQ(rig.pipeline->quarantined().size(), 1u);
  EXPECT_EQ(rig.pipeline->quarantined()[0],
            GraphFingerprint((*feed_graphs_)[0]));

  // A replay of the poisoned item is consumed by quarantine dedup, and
  // the loop keeps working for healthy items.
  OfferFeed(rig.pipeline.get(), 0);
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_deduped, 1u);
  EXPECT_EQ(stats.items_applied, 1u);
}

TEST_F(PipelineTest, CommitVerificationFailureRollsBack) {
  std::string dir = CloneTemplate("adapt_commit_fault");
  Rig rig = OpenRig(dir);

  auto& injection = util::FaultInjection::Instance();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptCommit) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The unit is quarantined, the rollback is counted, and the trainer
  // matches the durable store again (ReloadTrainer).
  EXPECT_EQ(report->applied, 0u);
  EXPECT_EQ(report->quarantined, 1u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.commit_failures, 1u);
  EXPECT_EQ(stats.items_quarantined, 1u);
  auto reopened = AdaptationPipeline::Open(dir, nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rig.pipeline->TrainerDigest(), (*reopened)->TrainerDigest());

  // The loop is not wedged: the next healthy item goes through.
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  EXPECT_EQ(rig.pipeline->stats().items_applied, 1u);
}

TEST_F(PipelineTest, BackgroundWorkerAdaptsWhileServing) {
  std::string dir = CloneTemplate("adapt_worker");
  AdaptationConfig config;
  config.poll_interval_ms = 1.0;
  Rig rig = OpenRig(dir, config);

  ASSERT_TRUE(rig.pipeline->Start().ok());
  EXPECT_TRUE(rig.pipeline->running());
  EXPECT_FALSE(rig.pipeline->Start().ok());  // already running

  for (size_t i = 0; i < 3; ++i) OfferFeed(rig.pipeline.get(), i);

  // The serve path stays live while the worker labels and trains; the
  // requests also exercise the reload swap under concurrent traffic.
  serve::RecommendRequest request;
  request.graph = (*feed_graphs_)[3];
  request.w_a = 0.9;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (rig.pipeline->stats().items_applied < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    serve::RecommendResponse response = rig.server->ServeOne(request);
    EXPECT_TRUE(response.status.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig.pipeline->Stop();
  EXPECT_FALSE(rig.pipeline->running());
  EXPECT_EQ(rig.pipeline->stats().items_applied, 3u);
  EXPECT_EQ(rig.pipeline->queue().depth(), 0u);
  rig.pipeline->Stop();  // idempotent
}

TEST_F(PipelineTest, LabelBudgetExpiryDegradesToSentinel) {
  std::string dir = CloneTemplate("adapt_label_budget");
  AdaptationConfig config;
  config.batch_size = 8;
  config.label_budget_ms_per_batch = 10.0;
  // Simulated clock: every observation advances 6 ms, so the budget
  // admits exactly one label before expiring — deterministically, on
  // any host.
  double now_s = 0.0;
  config.clock = [&now_s] {
    now_s += 0.006;
    return now_s;
  };
  Rig rig = OpenRig(dir, config);
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  for (size_t i = 0; i < 3; ++i) OfferFeed(rig.pipeline.get(), i);
  auto report = rig.pipeline->RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Item 0 labeled within budget; items 1 and 2 hit the expired budget
  // and degrade to sentinel labels exactly like retry exhaustion — they
  // are still applied (without Mixup), never dropped.
  EXPECT_EQ(report->drained, 3u);
  EXPECT_EQ(report->applied, 3u);
  EXPECT_EQ(report->sentinel, 2u);
  EXPECT_EQ(report->budget_expired, 2u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_ok, 1u);
  EXPECT_EQ(stats.labels_sentinel, 2u);
  EXPECT_EQ(stats.labels_budget_expired, 2u);
  EXPECT_EQ(stats.label_retries, 0u);  // expiry never burns retries
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 2 + 2);

  // The budget is per batch: the next RunOnce re-arms it, so a fresh
  // item labels fine even though the clock marched on.
  OfferFeed(rig.pipeline.get(), 3);
  auto second = rig.pipeline->RunOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->budget_expired, 0u);
  EXPECT_EQ(rig.pipeline->stats().labels_ok, 2u);
}

TEST_F(PipelineTest, UnlimitedLabelBudgetNeverExpires) {
  std::string dir = CloneTemplate("adapt_label_nobudget");
  AdaptationConfig config;
  config.label_budget_ms_per_batch = 0.0;  // unlimited (the default)
  double now_s = 0.0;
  config.clock = [&now_s] {
    now_s += 1e6;  // each look jumps ~11 days
    return now_s;
  };
  Rig rig = OpenRig(dir, config);
  OfferFeed(rig.pipeline.get(), 0);
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_ok, 2u);
  EXPECT_EQ(stats.labels_budget_expired, 0u);
}

TEST_F(PipelineTest, QuarantineLogPersistsAcrossRestart) {
  std::string dir = CloneTemplate("adapt_qlog");
  uint64_t poisoned = GraphFingerprint((*feed_graphs_)[0]);
  {
    Rig rig = OpenRig(dir);
    auto& injection = util::FaultInjection::Instance();
    ASSERT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptTrain) +
                               ":1.0")
                    .ok());
    OfferFeed(rig.pipeline.get(), 0);
    ASSERT_TRUE(rig.pipeline->RunOnce().ok());
    injection.Disable();
    ASSERT_EQ(rig.pipeline->quarantined().size(), 1u);
  }

  // The sidecar log carries fingerprint, stage, and a failure reason.
  auto records = ReadQuarantineLog(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fingerprint, poisoned);
  EXPECT_EQ(records[0].stage, "train");
  EXPECT_FALSE(records[0].reason.empty());

  // A restarted pipeline reloads the quarantine: the poisoned item is
  // consumed by dedup instead of retraining (and possibly re-poisoning).
  {
    Rig rig = OpenRig(dir);
    ASSERT_EQ(rig.pipeline->quarantine_records().size(), 1u);
    EXPECT_EQ(rig.pipeline->quarantine_records()[0].fingerprint, poisoned);
    OfferFeed(rig.pipeline.get(), 0);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
    AdaptationStats stats = rig.pipeline->stats();
    EXPECT_EQ(stats.items_deduped, 1u);
    EXPECT_EQ(stats.items_applied, 0u);
  }
}

TEST_F(PipelineTest, RequeueFromQuarantineClearsAndReapplies) {
  // The operator recovery path: poison an item so it quarantines, then
  // `requeue` it once the "fault is fixed" — the log entry and dedup
  // state are cleared and the item trains into the RCS normally.
  std::string dir = CloneTemplate("adapt_requeue");
  Rig rig = OpenRig(dir);
  uint64_t poisoned = GraphFingerprint((*feed_graphs_)[0]);

  auto& injection = util::FaultInjection::Instance();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptTrain) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  ASSERT_TRUE(rig.pipeline->RunOnce().ok());
  injection.Disable();
  ASSERT_EQ(rig.pipeline->quarantined().size(), 1u);
  ASSERT_EQ(ReadQuarantineLog(dir).size(), 1u);

  // Requeue with the wrong dataset is refused; an unknown fingerprint
  // reports NotFound.
  auto mismatched = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[1], (*feed_graphs_)[1]);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  auto unknown = rig.pipeline->RequeueFromQuarantine(
      poisoned + 1, (*feed_datasets_)[1], (*feed_graphs_)[1]);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  ASSERT_EQ(rig.pipeline->quarantined().size(), 1u);

  // The real requeue clears the log + memory and re-offers the item.
  auto offered = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[0], (*feed_graphs_)[0]);
  ASSERT_TRUE(offered.ok()) << offered.status().ToString();
  EXPECT_EQ(*offered, Offered::kAdmitted);
  EXPECT_TRUE(rig.pipeline->quarantined().empty());
  EXPECT_TRUE(ReadQuarantineLog(dir).empty());
  EXPECT_EQ(rig.pipeline->queue().depth(), 1u);

  // With the fault gone, the retried item applies for real.
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_applied, 1u);
  EXPECT_EQ(stats.items_deduped, 0u);

  // A second requeue of the now-applied item reports NotFound.
  auto gone = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[0], (*feed_graphs_)[0]);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(QuarantineLogTest, RemoveFromQuarantineLogRewritesAtomically) {
  std::string dir = std::string(::testing::TempDir()) + "/qlog_rewrite";
  auto store = util::SnapshotStore::Open(dir);  // creates the dir
  ASSERT_TRUE(store.ok());
  std::remove((dir + "/QUARANTINE.log").c_str());
  EXPECT_EQ(RemoveFromQuarantineLog(dir, 1), 0u);  // absent log

  FILE* f = std::fopen((dir + "/QUARANTINE.log").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "10\ttrain\treason a\n20\tcommit\treason b\n"
                  "10\ttrain\treason c\n");
  std::fclose(f);

  EXPECT_EQ(RemoveFromQuarantineLog(dir, 10), 2u);
  auto records = ReadQuarantineLog(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fingerprint, 20u);
  EXPECT_EQ(records[0].stage, "commit");
  EXPECT_EQ(records[0].reason, "reason b");
  EXPECT_EQ(RemoveFromQuarantineLog(dir, 10), 0u);
}

TEST_F(PipelineTest, MultiWorkerDrainIsBitIdentical) {
  // The determinism proof behind `num_workers`: the same feed stream
  // must land on the same trainer digest and the same stats at any
  // worker count — even with label faults firing (fault decisions are
  // content-keyed, not thread-keyed).
  struct Observed {
    uint64_t digest;
    uint64_t generation;
    AdaptationStats stats;
  };
  auto run = [&](int workers) {
    std::string dir =
        CloneTemplate("adapt_mw" + std::to_string(workers));
    AdaptationConfig config;
    config.batch_size = 8;
    config.num_workers = workers;
    Rig rig = OpenRig(dir, config);
    auto& injection = util::FaultInjection::Instance();
    EXPECT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptLabel) +
                               ":0.5")
                    .ok());
    for (size_t i = 0; i < feed_graphs_->size(); ++i) {
      OfferFeed(rig.pipeline.get(), i);
    }
    EXPECT_TRUE(rig.pipeline->DrainAll().ok());
    injection.Disable();
    Observed o;
    o.digest = rig.pipeline->TrainerDigest();
    o.generation = rig.server->generation();
    o.stats = rig.pipeline->stats();
    return o;
  };

  Observed one = run(1);
  for (int workers : {2, 4}) {
    Observed many = run(workers);
    EXPECT_EQ(many.digest, one.digest) << workers << " workers";
    EXPECT_EQ(many.generation, one.generation) << workers << " workers";
    EXPECT_EQ(many.stats.items_applied, one.stats.items_applied);
    EXPECT_EQ(many.stats.labels_ok, one.stats.labels_ok);
    EXPECT_EQ(many.stats.labels_sentinel, one.stats.labels_sentinel);
    EXPECT_EQ(many.stats.label_retries, one.stats.label_retries);
    EXPECT_EQ(many.stats.generations_committed,
              one.stats.generations_committed);
  }
}

TEST_F(PipelineTest, SentinelLabelIsAllFailedFloor) {
  advisor::DatasetLabel label = SentinelLabel();
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    EXPECT_TRUE(label.failed[m]);
    EXPECT_EQ(label.accuracy_score[m], advisor::kScoreFloor);
    EXPECT_EQ(label.efficiency_score[m], advisor::kScoreFloor);
  }
}

}  // namespace
}  // namespace autoce::adapt
