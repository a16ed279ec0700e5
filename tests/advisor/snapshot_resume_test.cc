#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/serde.h"
#include "util/snapshot.h"

namespace autoce::advisor {
namespace {

struct SmallCorpus {
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<DatasetLabel> labels;
};

SmallCorpus MakeSmallCorpus(int n, uint64_t seed) {
  SmallCorpus out;
  featgraph::FeatureExtractor fx;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    data::DatasetGenParams p;
    p.min_tables = 1;
    p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 220;
    Rng child = rng.Fork(static_cast<uint64_t>(i));
    out.graphs.push_back(fx.Extract(data::GenerateDataset(p, &child)));
    DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
      label.qerror_mean[m] = child.Uniform(1.0, 40.0);
      label.latency_ms[m] = child.Uniform(0.1, 130.0);
    }
    out.labels.push_back(label);
  }
  return out;
}

AutoCeConfig SmallConfig() {
  AutoCeConfig cfg;
  cfg.dml.epochs = 8;
  cfg.validation_interval = 2;
  cfg.gin.hidden = 10;
  cfg.gin.embedding_dim = 6;
  return cfg;
}

std::string FreshDir(const std::string& name) {
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

void CopyFile(const std::string& from, const std::string& to) {
  FILE* in = std::fopen(from.c_str(), "rb");
  ASSERT_NE(in, nullptr) << from;
  FILE* out = std::fopen(to.c_str(), "wb");
  ASSERT_NE(out, nullptr) << to;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  ASSERT_EQ(std::fclose(out), 0);
}

TEST(SnapshotResumeTest, SnapshottingDoesNotChangeTheFittedModel) {
  SmallCorpus corpus = MakeSmallCorpus(14, 11);
  AutoCe plain(SmallConfig());
  ASSERT_TRUE(plain.Fit(corpus.graphs, corpus.labels).ok());

  AutoCe snapshotted(SmallConfig());
  ASSERT_TRUE(
      snapshotted.EnableSnapshots(FreshDir("resume_nochange")).ok());
  ASSERT_TRUE(snapshotted.Fit(corpus.graphs, corpus.labels).ok());

  EXPECT_EQ(plain.ModelDigest(), snapshotted.ModelDigest());
  EXPECT_EQ(snapshotted.train_cursor().phase, AutoCe::FitPhase::kDone);
}

TEST(SnapshotResumeTest, FitCommitsGenerationsAtEveryCheckpoint) {
  SmallCorpus corpus = MakeSmallCorpus(14, 11);
  std::string dir = FreshDir("resume_gens");
  util::SnapshotStoreOptions options;
  options.keep_generations = 64;
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // 8 epochs / interval 2 = 4 chunks, plus the initial, the
  // incremental-learning transition, and the final checkpoint.
  EXPECT_EQ(store->ListGenerations().size(), 7u);
  auto manifest = store->ManifestGeneration();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(*manifest, 7u);
}

TEST(SnapshotResumeTest, ResumeFromDoneRestoresBitIdenticalModel) {
  SmallCorpus corpus = MakeSmallCorpus(14, 13);
  std::string dir = FreshDir("resume_done");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
  EXPECT_EQ(resumed->train_cursor().phase, AutoCe::FitPhase::kDone);
  EXPECT_DOUBLE_EQ(resumed->DriftThreshold(), advisor.DriftThreshold());

  // The restored advisor recommends identically.
  SmallCorpus probes = MakeSmallCorpus(4, 99);
  for (const auto& g : probes.graphs) {
    auto a = advisor.Recommend(g, 0.7);
    auto b = resumed->Recommend(g, 0.7);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->model, b->model);
    EXPECT_EQ(a->neighbors, b->neighbors);
  }
}

TEST(SnapshotResumeTest, ResumeFromEveryGenerationReachesIdenticalModel) {
  // Simulates a kill after each checkpoint: a directory holding only the
  // generations up to g (and no MANIFEST, as if the crash predated the
  // MANIFEST update) must resume to the bit-identical final model.
  SmallCorpus corpus = MakeSmallCorpus(14, 17);
  std::string dir = FreshDir("resume_every");
  util::SnapshotStoreOptions options;
  options.keep_generations = 64;
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  const uint64_t baseline = advisor.ModelDigest();

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  std::vector<uint64_t> gens = store->ListGenerations();
  ASSERT_GE(gens.size(), 3u);
  for (uint64_t g : gens) {
    std::string partial_dir =
        FreshDir("resume_every_gen" + std::to_string(g));
    auto partial = util::SnapshotStore::Open(partial_dir, options);
    ASSERT_TRUE(partial.ok());
    CopyFile(store->GenerationPath(g), partial->GenerationPath(g));

    auto resumed = AutoCe::ResumeFit(partial_dir, options);
    ASSERT_TRUE(resumed.ok())
        << "generation " << g << ": " << resumed.status().ToString();
    EXPECT_EQ(resumed->ModelDigest(), baseline) << "generation " << g;
    EXPECT_EQ(resumed->train_cursor().phase, AutoCe::FitPhase::kDone);
  }
}

/// The sections of generation `g` of the store at `dir`.
std::vector<util::SnapshotSection> LoadGeneration(
    const std::string& dir, uint64_t g,
    const util::SnapshotStoreOptions& options) {
  auto store = util::SnapshotStore::Open(dir, options);
  EXPECT_TRUE(store.ok());
  std::string copy_dir = FreshDir("resume_load_gen" + std::to_string(g));
  auto copy = util::SnapshotStore::Open(copy_dir, options);
  EXPECT_TRUE(copy.ok());
  CopyFile(store->GenerationPath(g), copy->GenerationPath(g));
  auto sections = copy->LoadLatest();
  EXPECT_TRUE(sections.ok()) << sections.status().ToString();
  return sections.ok() ? *sections : std::vector<util::SnapshotSection>{};
}

/// Commits `sections` as the only generation of a fresh store.
std::string CommitToFreshDir(const std::string& name,
                             const std::vector<util::SnapshotSection>& sections) {
  std::string dir = FreshDir(name);
  auto store = util::SnapshotStore::Open(dir);
  EXPECT_TRUE(store.ok());
  EXPECT_TRUE(store->Commit(sections).ok());
  return dir;
}

TEST(SnapshotResumeTest, ResumeIgnoresLegacyOptimizerSection) {
  // Snapshots written before the Adam moments were dropped carry an
  // `optimizer` section between `best` and `rng`: a u64 matrix count,
  // the first then the second moments (rows, cols, framed doubles) and
  // the i64 step count. Resuming one must reach the same model.
  SmallCorpus corpus = MakeSmallCorpus(14, 19);
  std::string dir = FreshDir("resume_legacy");
  util::SnapshotStoreOptions options;
  options.keep_generations = 64;
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir, options).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  const uint64_t baseline = advisor.ModelDigest();

  BinaryWriter legacy;
  legacy.WriteU64(1);
  for (int moment = 0; moment < 2; ++moment) {
    legacy.WriteU64(1);
    legacy.WriteU64(2);
    legacy.WriteDoubles({0.25, -0.5});
  }
  legacy.WriteI64(20);

  auto store = util::SnapshotStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  // A mid-training generation and the finished one.
  for (uint64_t g : {uint64_t{2}, store->ListGenerations().back()}) {
    std::vector<util::SnapshotSection> sections =
        LoadGeneration(dir, g, options);
    ASSERT_EQ(sections.size(), 6u);
    ASSERT_EQ(sections[3].name, "best");
    sections.insert(sections.begin() + 4, {"optimizer", legacy.buffer()});
    std::string legacy_dir =
        CommitToFreshDir("resume_legacy_gen" + std::to_string(g), sections);

    auto resumed = AutoCe::ResumeFit(legacy_dir);
    ASSERT_TRUE(resumed.ok())
        << "generation " << g << ": " << resumed.status().ToString();
    EXPECT_EQ(resumed->ModelDigest(), baseline) << "generation " << g;
  }
}

TEST(SnapshotResumeTest, RetiredPlainPhaseIsDataLoss) {
  SmallCorpus corpus = MakeSmallCorpus(12, 29);
  std::string dir = FreshDir("resume_phase3");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  auto sections = util::SnapshotStore::Open(dir)->LoadLatest();
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections->back().name, "cursor");
  // The cursor opens with the u32 little-endian phase; 3 was the
  // single-shot fit, which no longer exists.
  std::string& cursor = sections->back().payload;
  ASSERT_GE(cursor.size(), 4u);
  cursor[0] = 3;
  cursor[1] = cursor[2] = cursor[3] = 0;

  auto resumed = AutoCe::ResumeFit(CommitToFreshDir("resume_phase3_bad",
                                                    *sections));
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotResumeTest, OnlineUpdatesCommitAndRestore) {
  SmallCorpus corpus = MakeSmallCorpus(12, 23);
  std::string dir = FreshDir("resume_online");
  AutoCe advisor(SmallConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());

  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto before = store->ManifestGeneration();
  ASSERT_TRUE(before.ok());

  SmallCorpus extra = MakeSmallCorpus(1, 71);
  ASSERT_TRUE(
      advisor.AddLabeledSample(extra.graphs[0], extra.labels[0]).ok());
  auto after = store->ManifestGeneration();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before + 1);

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->RcsSize(), advisor.RcsSize());
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
}

TEST(SnapshotResumeTest, SaveSnapshotRequiresStoreAndFit) {
  AutoCe unfitted;
  EXPECT_EQ(unfitted.SaveSnapshot().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(
      unfitted.EnableSnapshots(FreshDir("resume_unfitted")).ok());
  EXPECT_EQ(unfitted.SaveSnapshot().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotResumeTest, ResumeFromEmptyDirReportsNotFound) {
  auto resumed = AutoCe::ResumeFit(FreshDir("resume_nothing"));
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace autoce::advisor
