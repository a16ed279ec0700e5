// Bit-identity sweep for the util::simd dispatch layer (DESIGN.md
// §5.10): scalar and the best-available vector level must produce
// byte-identical matrix products, embeddings, KNN neighbor lists,
// NeuroCard/UAE estimates and fss-served plans at every thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "ce/estimator.h"
#include "data/generator.h"
#include "engine/executor.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/estimator_service.h"
#include "gnn/gin.h"
#include "knn/index.h"
#include "nn/matrix.h"
#include "query/query.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace autoce {
namespace {

namespace simd = util::simd;

/// FNV-1a over the raw bits of a double sequence — any reordering or
/// rounding difference changes the digest.
uint64_t Digest(std::span<const double> values) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The dispatch levels to sweep: always scalar, plus the best available
/// level when it differs (on AVX2 hardware this pins scalar == avx2).
std::vector<simd::Level> SweepLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kAvx2, simd::Level::kNeon}) {
    if (simd::LevelAvailable(l)) {
      levels.push_back(l);
      break;
    }
  }
  return levels;
}

/// Runs `fn` at dispatch level `level`, restoring the previous level.
template <typename Fn>
void AtLevel(simd::Level level, Fn&& fn) {
  simd::Level prev = simd::ActiveLevel();
  ASSERT_TRUE(simd::SetActiveLevel(level));
  fn();
  ASSERT_TRUE(simd::SetActiveLevel(prev));
}

featgraph::FeatureGraph MakeGraph(uint64_t seed, int tables) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 200;
  p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  featgraph::FeatureExtractor fx;
  return fx.Extract(ds);
}

std::vector<std::vector<double>> RandomPoints(size_t n, size_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Gaussian();
  }
  return pts;
}

void ExpectSameNeighborBits(const std::vector<knn::Neighbor>& a,
                            const std::vector<knn::Neighbor>& b,
                            const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << what << " rank " << i;
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i].distance, sizeof(bits_a));
    std::memcpy(&bits_b, &b[i].distance, sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b) << what << " rank " << i;
  }
}

/// Thread sweep: the kernels must be invariant to both the dispatch
/// level and the global parallelism (1 / 2 / 8).
class SimdDispatchSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    prev_threads_ = util::GlobalParallelism();
    util::SetGlobalParallelism(GetParam());
  }
  void TearDown() override { util::SetGlobalParallelism(prev_threads_); }

 private:
  int prev_threads_ = 1;
};

TEST_P(SimdDispatchSweep, MatrixProductsByteIdenticalAcrossLevels) {
  Rng rng(101);
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                         {3, 5, 7},
                         {4, 8, 8},
                         {8, 16, 8},
                         {5, 9, 17},
                         {13, 2, 31}}) {
    nn::Matrix a(m, k), b(k, n), at(k, m), bt(n, k);
    for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < at.size(); ++i) at.data()[i] = rng.Gaussian();
    for (size_t i = 0; i < bt.size(); ++i) bt.data()[i] = rng.Gaussian();

    std::vector<uint64_t> digests;
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        nn::Matrix ab = a.MatMul(b);
        nn::Matrix tn = at.TransposeMatMul(b);
        nn::Matrix nt = a.MatMulTranspose(bt);
        uint64_t d = Digest({ab.data(), ab.size()}) ^
                     (Digest({tn.data(), tn.size()}) * 3) ^
                     (Digest({nt.data(), nt.size()}) * 7);
        digests.push_back(d);
      });
    }
    for (size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[0], digests[i])
          << m << "x" << k << "x" << n << " level "
          << simd::LevelName(SweepLevels()[i]);
    }
  }
}

TEST_P(SimdDispatchSweep, EmbedBatchDigestInvariant) {
  featgraph::FeatureExtractor fx;
  Rng rng(7);
  gnn::GinConfig cfg;
  cfg.embedding_dim = 16;
  gnn::GinEncoder enc(fx.vertex_dim(), cfg, &rng);
  std::vector<featgraph::FeatureGraph> graphs;
  for (uint64_t s = 1; s <= 4; ++s) graphs.push_back(MakeGraph(s, 2 + s % 3));
  std::vector<const featgraph::FeatureGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  std::vector<uint64_t> digests;
  for (simd::Level level : SweepLevels()) {
    AtLevel(level, [&] {
      auto embs = enc.EmbedBatch(ptrs);
      uint64_t d = 0;
      for (const auto& e : embs) d ^= Digest(e) * 0x9E3779B97F4A7C15ULL;
      digests.push_back(d);
    });
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i])
        << "level " << simd::LevelName(SweepLevels()[i]);
  }
  // Thread invariance: the digest at this thread count equals the
  // digest at 1 thread.
  util::SetGlobalParallelism(1);
  auto embs = enc.EmbedBatch(ptrs);
  uint64_t single = 0;
  for (const auto& e : embs) single ^= Digest(e) * 0x9E3779B97F4A7C15ULL;
  util::SetGlobalParallelism(GetParam());
  EXPECT_EQ(digests[0], single);
}

TEST_P(SimdDispatchSweep, KnnNeighborListsInvariant) {
  auto points = RandomPoints(160, 24, 55);
  // Adversarial members: exact duplicates (tie-break), a zero vector,
  // denormal coordinates.
  points[40] = points[7];
  points[41] = points[7];
  points[42].assign(24, 0.0);
  points[43].assign(24, 4.9e-324);
  std::vector<std::vector<double>> queries = RandomPoints(12, 24, 56);
  queries.push_back(points[7]);   // exact hit with duplicates
  queries.push_back(points[42]);  // zero query

  knn::Index index = knn::Index::Build(points);
  for (const auto& q : queries) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{16}}) {
      std::vector<std::vector<knn::Neighbor>> results;
      for (simd::Level level : SweepLevels()) {
        AtLevel(level, [&] { results.push_back(index.Query(q, k)); });
      }
      for (size_t i = 1; i < results.size(); ++i) {
        ExpectSameNeighborBits(results[0], results[i], "level sweep");
      }
    }
  }
}

/// Trains NeuroCard and UAE on a 3-table dataset and digests their
/// estimates. Inference runs many prefixes per column through the
/// register-tiled GEMM kernels, and UAE's calibration runs that
/// inference inside Train, so both paths are covered.
uint64_t ArEstimateDigest() {
  Rng rng(21);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = 200;
  p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 30;
  std::vector<query::Query> queries = query::GenerateWorkload(ds, wp, &rng);
  std::vector<double> cards = engine::TrueCardinalities(ds, queries);
  ce::TrainContext ctx;
  ctx.dataset = &ds;
  ctx.train_queries = &queries;
  ctx.train_cards = &cards;
  ctx.seed = 5;
  ce::ModelTrainingScale scale = ce::ModelTrainingScale::Fast();
  scale.join_sample_rows = 300;
  std::vector<double> estimates;
  for (ce::ModelId id : {ce::ModelId::kNeuroCard, ce::ModelId::kUae}) {
    auto model = ce::CreateModel(id, scale);
    EXPECT_TRUE(model->Train(ctx).ok());
    for (const auto& q : queries) {
      estimates.push_back(model->EstimateCardinality(q));
    }
  }
  return Digest(estimates);
}

TEST_P(SimdDispatchSweep, ProgressiveSamplingInvariant) {
  std::vector<uint64_t> digests;
  for (simd::Level level : SweepLevels()) {
    AtLevel(level, [&] { digests.push_back(ArEstimateDigest()); });
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i])
        << "level " << simd::LevelName(SweepLevels()[i]);
  }
  util::SetGlobalParallelism(1);
  uint64_t single = ArEstimateDigest();
  util::SetGlobalParallelism(GetParam());
  EXPECT_EQ(digests[0], single);
}

/// Plans and executes multi-table queries with every subplan
/// cardinality answered by an fss::EstimatorService hosting MSCN,
/// LW-XGB or NeuroCard: a cold pass whose executor feedback fills the
/// knowledge tier, then a second pass that reads it. Digests each
/// plan's shape and cost; every execution must return the true row
/// count.
uint64_t ServicePlanDigest() {
  Rng rng(33);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = 200;
  p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 60;
  wp.max_tables = 3;
  std::vector<query::Query> queries = query::GenerateWorkload(ds, wp, &rng);
  std::vector<query::Query> train(queries.begin(), queries.begin() + 40);
  std::vector<query::Query> run;
  for (size_t i = 40; i < queries.size(); ++i) {
    if (queries[i].tables.size() >= 2) run.push_back(queries[i]);
  }
  EXPECT_FALSE(run.empty());
  std::vector<double> cards = engine::TrueCardinalities(ds, train);
  ce::TrainContext ctx;
  ctx.dataset = &ds;
  ctx.train_queries = &train;
  ctx.train_cards = &cards;
  ctx.seed = 9;
  ce::ModelTrainingScale scale = ce::ModelTrainingScale::Fast();
  scale.join_sample_rows = 300;

  std::vector<double> values;
  for (ce::ModelId id :
       {ce::ModelId::kMscn, ce::ModelId::kLwXgb, ce::ModelId::kNeuroCard}) {
    auto model = ce::CreateModel(id, scale);
    EXPECT_TRUE(model->Train(ctx).ok());
    auto service = fss::EstimatorService::Open("", std::move(model), &ds);
    EXPECT_TRUE(service.ok());
    if (!service.ok()) return 0;
    engine::JoinOrderOptimizer opt(&ds);
    engine::PlanExecutor exec(&ds);
    exec.set_subplan_observer((*service)->MakeObserver());
    for (int pass = 0; pass < 2; ++pass) {
      for (const query::Query& q : run) {
        auto plan = opt.Optimize(q, service->get());
        EXPECT_TRUE(plan.ok());
        if (!plan.ok()) continue;
        engine::ExecutionResult result = exec.Execute(q, **plan);
        auto truth = engine::TrueCardinality(ds, q);
        EXPECT_TRUE(result.completed && truth.ok() &&
                    result.output_rows == *truth);
        for (char c : (*plan)->ToString()) values.push_back(c);
        values.push_back((*plan)->cost);
        values.push_back(static_cast<double>(result.output_rows));
      }
    }
    fss::ServiceStats stats = (*service)->stats();
    EXPECT_GT(stats.knowledge_hits, 0u);
    values.push_back(static_cast<double>(stats.knowledge_hits));
    values.push_back(static_cast<double>(stats.model_estimates));
  }
  return Digest(values);
}

TEST_P(SimdDispatchSweep, EstimatorServicePlansInvariant) {
  std::vector<uint64_t> digests;
  for (simd::Level level : SweepLevels()) {
    AtLevel(level, [&] { digests.push_back(ServicePlanDigest()); });
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[0], digests[i])
        << "level " << simd::LevelName(SweepLevels()[i]);
  }
  util::SetGlobalParallelism(1);
  uint64_t single = ServicePlanDigest();
  util::SetGlobalParallelism(GetParam());
  EXPECT_EQ(digests[0], single);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdDispatchSweep,
                         ::testing::Values(1, 2, 8));

TEST(SimdDispatchTest, ScalarReferenceOrderPinned) {
  // The documented reduction order, written longhand: element i joins
  // lane (i mod 4) via fma, lanes combine as (l0 + l2) + (l1 + l3).
  Rng rng(3);
  for (size_t n : {size_t{1}, size_t{4}, size_t{7}, size_t{64}, size_t{97}}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    double lane[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) {
      lane[i % 4] = std::fma(a[i], b[i], lane[i % 4]);
    }
    double expected = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (simd::Level level : SweepLevels()) {
      AtLevel(level, [&] {
        double got = simd::Dot(a.data(), b.data(), n);
        uint64_t bits_got, bits_want;
        std::memcpy(&bits_got, &got, sizeof(bits_got));
        std::memcpy(&bits_want, &expected, sizeof(bits_want));
        EXPECT_EQ(bits_got, bits_want)
            << "n=" << n << " level=" << simd::LevelName(level);
      });
    }
  }
}

TEST(SimdDispatchTest, DispatchPlumbing) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kNeon), "neon");
  simd::Level parsed;
  EXPECT_TRUE(simd::ParseLevel("avx2", &parsed));
  EXPECT_EQ(parsed, simd::Level::kAvx2);
  EXPECT_FALSE(simd::ParseLevel("sse9", &parsed));
  EXPECT_TRUE(simd::LevelAvailable(simd::Level::kScalar));
  // Scalar can always be selected and restored.
  simd::Level prev = simd::ActiveLevel();
  EXPECT_TRUE(simd::SetActiveLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_TRUE(simd::SetActiveLevel(prev));
  // An unavailable level is rejected and changes nothing.
  for (simd::Level l : {simd::Level::kAvx2, simd::Level::kNeon}) {
    if (!simd::LevelAvailable(l)) {
      EXPECT_FALSE(simd::SetActiveLevel(l));
      EXPECT_EQ(simd::ActiveLevel(), prev);
    }
  }
}

}  // namespace
}  // namespace autoce
