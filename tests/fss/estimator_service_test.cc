#include "fss/estimator_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "engine/executor.h"
#include "engine/histogram.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "util/fault.h"
#include "util/rng.h"

namespace autoce::fss {
namespace {

data::Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = p.max_rows = 150;
  p.min_columns = p.max_columns = 2;
  return data::GenerateDataset(p, &rng);
}

std::vector<query::Query> MakeWorkload(const data::Dataset& ds, int n,
                                       uint64_t seed) {
  Rng rng(seed);
  query::WorkloadParams wp;
  wp.num_queries = n;
  wp.max_tables = 3;
  return query::GenerateWorkload(ds, wp, &rng);
}

/// Deterministic sampling model: the estimate consumes its inference
/// RNG, so it is order-dependent UNLESS the service re-seeds per
/// subplan — exactly the property the service must guarantee.
class SamplingStubModel : public ce::CardinalityEstimator {
 public:
  ce::ModelId id() const override { return ce::ModelId::kMscn; }
  bool is_data_driven() const override { return false; }
  Status Train(const ce::TrainContext&) override { return Status::OK(); }
  double EstimateCardinality(const query::Query& q) override {
    ++calls;
    double noise = rng_.Uniform();  // advances shared sampling state
    return 100.0 * static_cast<double>(q.tables.size()) + noise;
  }
  void SeedInference(uint64_t seed) override { rng_ = Rng(seed); }
  int calls = 0;

 private:
  Rng rng_{99};
};

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

TEST(EstimatorServiceTest, NullModelServesHistogramFallback) {
  data::Dataset ds = MakeDataset(11);
  auto service = EstimatorService::Open("", nullptr, &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  for (const query::Query& q : MakeWorkload(ds, 5, 2)) {
    EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q),
                     histogram.EstimateCardinality(q));
  }
  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.fallbacks, 5u);
  EXPECT_EQ(stats.model_estimates, 0u);
  EXPECT_EQ((*service)->model_name(), "none");
}

TEST(EstimatorServiceTest, ModelEstimatesAreCachedBySubplan) {
  data::Dataset ds = MakeDataset(12);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 4, 3);

  std::vector<double> first, second;
  for (const auto& q : queries) first.push_back((*service)->EstimateSubplan(q));
  for (const auto& q : queries) second.push_back((*service)->EstimateSubplan(q));
  EXPECT_EQ(first, second);

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.model_estimates, 4u);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ((*service)->cache_size(), 4u);
}

TEST(EstimatorServiceTest, EstimatesAreCallOrderIndependent) {
  // Two services over the same dataset, asked about the same subplans
  // in different orders and interleavings, must answer identically —
  // the bit-identity anchor for the bench's thread sweep.
  data::Dataset ds = MakeDataset(13);
  auto a = EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  auto b = EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(a.ok() && b.ok());
  auto queries = MakeWorkload(ds, 6, 4);

  std::vector<double> forward(queries.size()), backward(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    forward[i] = (*a)->EstimateSubplan(queries[i]);
  }
  for (std::size_t i = queries.size(); i-- > 0;) {
    backward[i] = (*b)->EstimateSubplan(queries[i]);
  }
  EXPECT_EQ(forward, backward);
}

TEST(EstimatorServiceTest, KnowledgeOverridesModelAndCache) {
  data::Dataset ds = MakeDataset(14);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 3, 5);
  const query::Query& q = queries[0];

  double model_answer = (*service)->EstimateSubplan(q);
  (*service)->ObserveTrueCardinality(q, 777);
  EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q), 777.0);
  EXPECT_NE(model_answer, 777.0);

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.knowledge_hits, 1u);
  EXPECT_EQ(stats.feedback, 1u);
  EXPECT_EQ(stats.knowledge_entries, 1u);
}

TEST(EstimatorServiceTest, DeterministicFifoEviction) {
  data::Dataset ds = MakeDataset(15);
  EstimatorServiceOptions options;
  options.cache_capacity = 2;
  auto service = EstimatorService::Open(
      "", std::make_unique<SamplingStubModel>(), &ds, options);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 3, 6);
  ASSERT_GE(queries.size(), 3u);

  (*service)->EstimateSubplan(queries[0]);
  (*service)->EstimateSubplan(queries[1]);
  (*service)->EstimateSubplan(queries[2]);  // evicts queries[0]
  EXPECT_EQ((*service)->cache_size(), 2u);
  EXPECT_EQ((*service)->stats().evictions, 1u);

  (*service)->EstimateSubplan(queries[1]);  // still cached
  EXPECT_EQ((*service)->stats().cache_hits, 1u);
  (*service)->EstimateSubplan(queries[0]);  // re-estimated
  EXPECT_EQ((*service)->stats().model_estimates, 4u);
}

TEST(EstimatorServiceTest, KnowledgePersistsAcrossReopen) {
  data::Dataset ds = MakeDataset(16);
  std::string dir = TempStoreDir("fss_service_persist");
  auto queries = MakeWorkload(ds, 3, 7);
  {
    auto service = EstimatorService::Open(
        dir, std::make_unique<SamplingStubModel>(), &ds);
    ASSERT_TRUE(service.ok());
    (*service)->ObserveTrueCardinality(queries[0], 111);
    (*service)->ObserveTrueCardinality(queries[1], 222);
    ASSERT_TRUE((*service)->CommitKnowledge().ok());
    EXPECT_EQ((*service)->stats().commits, 1u);
  }
  auto reopened = EstimatorService::Open(
      dir, std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->knowledge_size(), 2u);
  EXPECT_DOUBLE_EQ((*reopened)->EstimateSubplan(queries[0]), 111.0);
  EXPECT_DOUBLE_EQ((*reopened)->EstimateSubplan(queries[1]), 222.0);
  EXPECT_EQ((*reopened)->stats().knowledge_hits, 2u);
}

TEST(EstimatorServiceTest, LookupFaultFallsBackToHistogram) {
  data::Dataset ds = MakeDataset(17);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  auto queries = MakeWorkload(ds, 4, 8);

  ASSERT_TRUE(
      util::FaultInjection::Instance().Configure("fss.lookup", 7).ok());
  for (const auto& q : queries) {
    EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q),
                     histogram.EstimateCardinality(q));
  }
  EXPECT_EQ((*service)->stats().fallbacks, 4u);
  EXPECT_EQ((*service)->cache_size(), 0u);  // degraded answers not cached
  util::FaultInjection::Instance().Disable();

  // Recovered: the model answers again.
  (*service)->EstimateSubplan(queries[0]);
  EXPECT_EQ((*service)->stats().model_estimates, 1u);
}

TEST(EstimatorServiceTest, CommitFaultLeavesDurableStoreUntouched) {
  data::Dataset ds = MakeDataset(18);
  std::string dir = TempStoreDir("fss_service_commit_fault");
  auto queries = MakeWorkload(ds, 2, 9);
  auto service = EstimatorService::Open(
      dir, std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());

  (*service)->ObserveTrueCardinality(queries[0], 50);
  ASSERT_TRUE((*service)->CommitKnowledge().ok());

  (*service)->ObserveTrueCardinality(queries[1], 60);
  ASSERT_TRUE(
      util::FaultInjection::Instance().Configure("fss.commit", 7).ok());
  Status failed = (*service)->CommitKnowledge();
  util::FaultInjection::Instance().Disable();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*service)->stats().commit_failures, 1u);
  // In-memory knowledge kept; durable store still the first commit.
  EXPECT_EQ((*service)->knowledge_size(), 2u);
  auto reopened = EstimatorService::Open(dir, nullptr, &ds);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->knowledge_size(), 1u);
}

TEST(EstimatorServiceTest, NonFiniteModelAnswerDegrades) {
  class BrokenModel : public SamplingStubModel {
   public:
    double EstimateCardinality(const query::Query&) override {
      return -1.0;  // out of contract
    }
  };
  data::Dataset ds = MakeDataset(19);
  auto service =
      EstimatorService::Open("", std::make_unique<BrokenModel>(), &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  auto queries = MakeWorkload(ds, 2, 10);
  EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(queries[0]),
                   histogram.EstimateCardinality(queries[0]));
  EXPECT_EQ((*service)->stats().fallbacks, 1u);
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

TEST(EstimatorServiceTest, TwoServicesExportSeparateInstanceSeries) {
  // Two tenants in one process: each exports its own ServiceStats under
  // its own `instance` label; teardown sums the counts into the
  // unlabelled totals and drops the levels.
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Enable();
  registry.Reset();
  data::Dataset ds = MakeDataset(20);
  auto queries = MakeWorkload(ds, 3, 11);
  {
    auto histogram_only = EstimatorService::Open("", nullptr, &ds);
    auto modeled = EstimatorService::Open(
        "", std::make_unique<SamplingStubModel>(), &ds);
    ASSERT_TRUE(histogram_only.ok() && modeled.ok());
    (*histogram_only)->EstimateSubplan(queries[0]);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : queries) (*modeled)->EstimateSubplan(q);
    }
    (*modeled)->NotifyEpoch(7);
    ServiceStats stats = (*modeled)->stats();

    std::string live = registry.ExportPrometheus();
    auto lookups = InstanceSeries(live, "fss_lookups_total");
    ASSERT_EQ(lookups.size(), 2u) << live;
    std::map<std::string, std::string> by_count;  // count -> instance
    for (const auto& [instance, value] : lookups) by_count[value] = instance;
    ASSERT_EQ(by_count.count("1"), 1u) << live;
    ASSERT_EQ(by_count.count("6"), 1u) << live;
    const std::string h = by_count["1"], m = by_count["6"];
    auto fallbacks = InstanceSeries(live, "fss_fallbacks_total");
    EXPECT_EQ(fallbacks[h], "1");
    EXPECT_EQ(fallbacks[m], "0");
    auto estimates = InstanceSeries(live, "fss_model_estimates_total");
    EXPECT_EQ(estimates[h], "0");
    EXPECT_EQ(estimates[m], std::to_string(stats.model_estimates));
    EXPECT_EQ(InstanceSeries(live, "fss_cache_hits_total")[m],
              std::to_string(stats.cache_hits));
    // Levels export as gauges: no `_total` suffix.
    auto epoch = InstanceSeries(live, "fss_epoch");
    EXPECT_EQ(epoch[h], "0");
    EXPECT_EQ(epoch[m], "7");
  }
  std::string text = registry.ExportPrometheus();
  registry.Disable();
  EXPECT_TRUE(InstanceSeries(text, "fss_lookups_total").empty()) << text;
  EXPECT_NE(text.find("\nfss_lookups_total 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nfss_fallbacks_total 1\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("fss_epoch"), std::string::npos) << text;
}

TEST(EstimatorServiceTest, ConcurrentLookupsFeedbackAndExports) {
  // One service driven from 4 threads: lookups, executor feedback, stats
  // reads and registry exports interleave (the tsan label runs this
  // under ThreadSanitizer). The answers stay the single-threaded ones
  // and the counters add up.
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Enable();
  data::Dataset ds = MakeDataset(21);
  auto queries = MakeWorkload(ds, 8, 13);
  ASSERT_GE(queries.size(), 4u);
  const size_t half = queries.size() / 2;  // [half, end) gets feedback

  std::vector<double> want;
  {
    auto reference = EstimatorService::Open(
        "", std::make_unique<SamplingStubModel>(), &ds);
    ASSERT_TRUE(reference.ok());
    for (const auto& q : queries) want.push_back((*reference)->EstimateSubplan(q));
  }

  EstimatorServiceOptions options;
  options.cache_capacity = 3;  // small enough to evict under load
  options.drift_disagreement_threshold = 1e-9;
  auto service = EstimatorService::Open(
      "", std::make_unique<SamplingStubModel>(), &ds, options);
  ASSERT_TRUE(service.ok());
  EstimatorService* svc = service->get();
  std::atomic<int> hook_calls{0};
  svc->set_disagreement_hook(
      [&](const query::Query&, double) { hook_calls.fetch_add(1); });

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          double got = svc->EstimateSubplan(queries[i]);
          // Feedback only ever reports 7 rows, so a knowledge answer
          // for the second half is 7; everything else is the model's.
          if (got != want[i] && !(i >= half && got == 7.0)) {
            wrong.fetch_add(1);
          }
          if (i >= half && (round + t) % 3 == 0) {
            svc->ObserveTrueCardinality(queries[i], 7);
          }
        }
        ServiceStats mid = svc->stats();
        EXPECT_GE(mid.lookups, mid.knowledge_hits + mid.cache_hits);
        EXPECT_FALSE(registry.ExportJson().empty());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  ServiceStats stats = svc->stats();
  const uint64_t lookups = kThreads * kRounds * queries.size();
  EXPECT_EQ(stats.lookups, lookups);
  EXPECT_EQ(stats.knowledge_hits + stats.cache_hits + stats.model_estimates +
                stats.fallbacks,
            lookups);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_GT(stats.knowledge_hits, 0u);
  EXPECT_GT(stats.feedback, 0u);
  EXPECT_EQ(stats.drift_disagreements, static_cast<uint64_t>(hook_calls));
  EXPECT_LE(svc->cache_size(), 3u);
  registry.Disable();
}

}  // namespace
}  // namespace autoce::fss
