#include <gtest/gtest.h>

#include "advisor/autoce.h"
#include "data/generator.h"

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
  cfg.dml.epochs = 10;
  cfg.gin.hidden = 12;
  cfg.gin.embedding_dim = 6;
  return cfg;
}

TEST(CheckpointTest, BothValidationModesFit) {
  // Chunked validation is the only training mode: an interval below 1
  // is refused up front, a positive one fits.
  SmallCorpus corpus = MakeSmallCorpus(20, 3);
  AutoCeConfig cfg = SmallConfig();
  cfg.validation_interval = 0;
  AutoCe refused(cfg);
  EXPECT_EQ(refused.Fit(corpus.graphs, corpus.labels).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.RcsSize(), 0u);

  cfg.validation_interval = 5;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
  auto rec = advisor.Recommend(corpus.graphs[0], 0.9);
  EXPECT_TRUE(rec.ok());
}

TEST(CheckpointTest, FitIsDeterministic) {
  SmallCorpus corpus = MakeSmallCorpus(18, 5);
  AutoCe a(SmallConfig()), b(SmallConfig());
  ASSERT_TRUE(a.Fit(corpus.graphs, corpus.labels).ok());
  ASSERT_TRUE(b.Fit(corpus.graphs, corpus.labels).ok());
  EXPECT_EQ(a.RcsSize(), b.RcsSize());
  EXPECT_DOUBLE_EQ(a.DriftThreshold(), b.DriftThreshold());
  SmallCorpus probes = MakeSmallCorpus(5, 99);
  for (const auto& g : probes.graphs) {
    auto ra = a.Recommend(g, 0.7);
    auto rb = b.Recommend(g, 0.7);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->model, rb->model);
    EXPECT_EQ(ra->neighbors, rb->neighbors);
  }
}

TEST(CheckpointTest, CheckpointingNeverWorseThanUntrainedOnHoldout) {
  // The checkpoint keeps the best-validated state, which includes the
  // initial (untrained) encoder — so the selected encoder's validation
  // error is at most the untrained one's. We verify the weaker visible
  // property: Fit succeeds and recommendations are sane for every knn_k.
  SmallCorpus corpus = MakeSmallCorpus(24, 7);
  for (int k : {1, 2, 5}) {
    AutoCeConfig cfg = SmallConfig();
    cfg.knn_k = k;
    AutoCe advisor(cfg);
    ASSERT_TRUE(advisor.Fit(corpus.graphs, corpus.labels).ok());
    auto rec = advisor.Recommend(corpus.graphs[1], 1.0);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->neighbors.size(), static_cast<size_t>(k));
  }
}

}  // namespace
}  // namespace autoce::advisor
