#include "advisor/autoce.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "advisor/baselines.h"
#include "data/generator.h"
#include "nn/matrix.h"

namespace autoce::advisor {
namespace {

/// One small shared labeled corpus for the whole test suite (labeling
/// trains 7 CE models per dataset, so we pay the cost once).
class AdvisorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    data::DatasetGenParams gen;
    gen.min_tables = 1;
    gen.max_tables = 3;
    gen.min_rows = 300;
    gen.max_rows = 700;
    gen.min_columns = 2;
    gen.max_columns = 3;
    auto datasets = data::GenerateCorpus(gen, 28, &rng);

    ce::TestbedConfig testbed;
    testbed.num_train_queries = 40;
    testbed.num_test_queries = 20;
    testbed.scale = ce::ModelTrainingScale::Fast();

    featgraph::FeatureExtractor extractor;
    corpus_ = new LabeledCorpus(
        LabelCorpus(std::move(datasets), testbed, extractor));

    // Held-out evaluation split: last 8 datasets.
    train_ = new LabeledCorpus();
    test_ = new LabeledCorpus();
    for (size_t i = 0; i < corpus_->size(); ++i) {
      LabeledCorpus* dst = (i + 8 >= corpus_->size()) ? test_ : train_;
      dst->datasets.push_back(corpus_->datasets[i]);
      dst->graphs.push_back(corpus_->graphs[i]);
      dst->labels.push_back(corpus_->labels[i]);
    }
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete train_;
    delete test_;
    corpus_ = train_ = test_ = nullptr;
  }

  static AutoCeConfig FastConfig() {
    AutoCeConfig cfg;
    cfg.dml.epochs = 20;
    cfg.gin.hidden = 16;
    cfg.gin.embedding_dim = 8;
    return cfg;
  }

  static LabeledCorpus* corpus_;
  static LabeledCorpus* train_;
  static LabeledCorpus* test_;
};

LabeledCorpus* AdvisorTest::corpus_ = nullptr;
LabeledCorpus* AdvisorTest::train_ = nullptr;
LabeledCorpus* AdvisorTest::test_ = nullptr;

TEST_F(AdvisorTest, CorpusIsLabeled) {
  ASSERT_GE(corpus_->size(), 20u);
  for (const auto& label : corpus_->labels) {
    bool any_positive = false;
    for (double s : label.accuracy_score) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      any_positive |= (s > 0);
    }
    EXPECT_TRUE(any_positive);
  }
}

TEST_F(AdvisorTest, FitAndRecommend) {
  AutoCe advisor(FastConfig());
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  for (size_t i = 0; i < test_->size(); ++i) {
    auto rec = advisor.Recommend(test_->graphs[i], 0.9);
    ASSERT_TRUE(rec.ok());
    EXPECT_GE(static_cast<int>(rec->model), 0);
    EXPECT_LT(static_cast<int>(rec->model), ce::kNumModels);
    EXPECT_EQ(rec->score_vector.size(),
              static_cast<size_t>(ce::kNumModels));
    EXPECT_EQ(rec->neighbors.size(), 2u);  // k = 2 default
  }
}

TEST_F(AdvisorTest, RecommendDatasetEndToEnd) {
  AutoCe advisor(FastConfig());
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  auto rec = advisor.RecommendDataset(test_->datasets[0], 0.7);
  ASSERT_TRUE(rec.ok());
}

TEST_F(AdvisorTest, UnfittedAdvisorRejectsRecommend) {
  AutoCe advisor(FastConfig());
  auto rec = advisor.Recommend(corpus_->graphs[0], 0.9);
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AdvisorTest, BeatsRuleBaselineOnDError) {
  AutoCe advisor(FastConfig());
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());

  RuleSelector rule(7);
  ASSERT_TRUE(rule.Fit(*train_).ok());

  double advisor_err = 0, rule_err = 0;
  int n = 0;
  for (double w : {1.0, 0.9, 0.7}) {
    for (size_t i = 0; i < test_->size(); ++i) {
      auto rec = advisor.Recommend(test_->graphs[i], w);
      auto rrec = rule.Recommend(test_->datasets[i], test_->graphs[i], w);
      ASSERT_TRUE(rec.ok() && rrec.ok());
      advisor_err += test_->labels[i].DError(rec->model, w);
      rule_err += test_->labels[i].DError(*rrec, w);
      ++n;
    }
  }
  EXPECT_LT(advisor_err / n, rule_err / n);
}

TEST_F(AdvisorTest, TrainingDErrorIsLow) {
  // On its own training data the advisor must recommend near-optimal
  // models (KNN retrieves the sample itself or a close twin).
  AutoCe advisor(FastConfig());
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  double err =
      advisor.EvaluateMeanDError(train_->graphs, train_->labels, 0.9);
  EXPECT_LT(err, 0.35);
}

TEST_F(AdvisorTest, IncrementalLearningFlagChangesRcs) {
  AutoCeConfig with = FastConfig();
  with.enable_incremental = true;
  AutoCeConfig without = FastConfig();
  without.enable_incremental = false;

  AutoCe a(with), b(without);
  ASSERT_TRUE(a.Fit(train_->graphs, train_->labels).ok());
  ASSERT_TRUE(b.Fit(train_->graphs, train_->labels).ok());
  // Mixup augmentation can only grow the RCS.
  EXPECT_GE(a.RcsSize(), b.RcsSize());
  EXPECT_EQ(b.RcsSize(), train_->size());
}

TEST_F(AdvisorTest, DriftDetection) {
  AutoCe advisor(FastConfig());
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  EXPECT_GT(advisor.DriftThreshold(), 0.0);
  // Training members are within the threshold by construction (their
  // nearest-neighbor distances define the 90th percentile).
  int in_dist = 0;
  for (const auto& g : train_->graphs) {
    if (!advisor.IsOutOfDistribution(g)) ++in_dist;
  }
  EXPECT_GT(in_dist, static_cast<int>(train_->size() * 0.8));
}

TEST_F(AdvisorTest, DistanceToRcsIsNearestIndexNeighborDistance) {
  // The drift distance is the KNN index's own nearest-neighbor distance,
  // bit for bit, and equals a brute-force scan over the index members.
  AutoCeConfig cfg = FastConfig();
  cfg.enable_incremental = false;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  const knn::Index& index = advisor.rcs_index();
  ASSERT_EQ(index.size(), advisor.RcsSize());
  for (const auto& g : test_->graphs) {
    std::vector<double> embedding = advisor.Embed(g);
    auto hits = index.Query(embedding, 1);
    ASSERT_EQ(hits.size(), 1u);
    double brute = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < index.size(); ++i) {
      if (index.usable(i)) {
        brute = std::min(brute, nn::EuclideanDistance(embedding, index.Point(i)));
      }
    }
    double distance = advisor.DistanceToRcs(g);
    EXPECT_EQ(std::memcmp(&distance, &hits[0].distance, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&distance, &brute, sizeof(double)), 0);
  }
}

TEST_F(AdvisorTest, OnlineAddSampleGrowsRcs) {
  AutoCeConfig cfg = FastConfig();
  cfg.enable_incremental = false;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  size_t before = advisor.RcsSize();
  ASSERT_TRUE(
      advisor.AddLabeledSample(test_->graphs[0], test_->labels[0]).ok());
  EXPECT_EQ(advisor.RcsSize(), before + 1);
  // The added dataset is now trivially in-distribution.
  EXPECT_FALSE(advisor.IsOutOfDistribution(test_->graphs[0]));
}

TEST_F(AdvisorTest, RejectsMismatchedFit) {
  AutoCe advisor(FastConfig());
  std::vector<DatasetLabel> too_few(corpus_->labels.begin(),
                                    corpus_->labels.begin() + 2);
  EXPECT_FALSE(advisor.Fit(corpus_->graphs, too_few).ok());
}

TEST_F(AdvisorTest, KnnKAffectsNeighborCount) {
  AutoCeConfig cfg = FastConfig();
  cfg.knn_k = 4;
  cfg.enable_incremental = false;
  AutoCe advisor(cfg);
  ASSERT_TRUE(advisor.Fit(train_->graphs, train_->labels).ok());
  auto rec = advisor.Recommend(test_->graphs[0], 1.0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->neighbors.size(), 4u);
}

}  // namespace
}  // namespace autoce::advisor
