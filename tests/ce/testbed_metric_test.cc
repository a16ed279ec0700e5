#include <gtest/gtest.h>

#include <cstring>

#include "ce/testbed.h"
#include "data/generator.h"
#include "obs/metrics.h"

namespace autoce::ce {
namespace {

TEST(QErrorMetricTest, SelectAggregate) {
  QErrorSummary s;
  s.mean = 2.0;
  s.p50 = 1.5;
  s.p95 = 9.0;
  s.p99 = 20.0;
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kMean), 2.0);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP50), 1.5);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP95), 9.0);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP99), 20.0);
}

TEST(QErrorMetricTest, TestbedHonorsPercentileChoice) {
  Rng rng(3);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 600;
  data::Dataset ds = data::GenerateDataset(p, &rng);

  TestbedConfig mean_cfg;
  mean_cfg.num_train_queries = 40;
  mean_cfg.num_test_queries = 30;
  mean_cfg.qerror_metric = QErrorMetric::kMean;
  TestbedConfig p95_cfg = mean_cfg;
  p95_cfg.qerror_metric = QErrorMetric::kP95;

  auto mean_result = RunTestbed(ds, mean_cfg);
  auto p95_result = RunTestbed(ds, p95_cfg);
  ASSERT_TRUE(mean_result.ok() && p95_result.ok());
  // Same training (seeds identical); the stored aggregate differs and the
  // p95 aggregate is >= the p50 and usually > the mean slot of the
  // mean-config run for at least one model.
  bool any_larger = false;
  for (size_t m = 0; m < mean_result->models.size(); ++m) {
    EXPECT_GE(p95_result->models[m].qerror.mean + 1e-9,
              p95_result->models[m].qerror.p50);
    if (p95_result->models[m].qerror.mean >
        mean_result->models[m].qerror.mean) {
      any_larger = true;
    }
  }
  EXPECT_TRUE(any_larger);
}

TEST(QErrorMetricTest, DeterministicLabelsWithEmulatedLatency) {
  Rng rng(5);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 400;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  TestbedConfig cfg;
  cfg.num_train_queries = 30;
  cfg.num_test_queries = 20;
  auto a = RunTestbed(ds, cfg);
  auto b = RunTestbed(ds, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t m = 0; m < a->models.size(); ++m) {
    // Q-errors are seeded-deterministic; emulated latencies are the
    // reference constants — labels must match bit for bit.
    EXPECT_DOUBLE_EQ(a->models[m].qerror.mean, b->models[m].qerror.mean);
    EXPECT_DOUBLE_EQ(a->models[m].latency_mean_ms,
                     b->models[m].latency_mean_ms);
  }
}

int64_t TimerCount(const char* name, ModelId id) {
  return obs::MetricsRegistry::Instance()
      .GetHistogram(name, {{"model", ModelName(id)}})
      ->Snapshot()
      .count;
}

TEST(QErrorMetricTest, PerModelTimersRecordOncePerDatasetWithoutMovingLabels) {
  std::vector<data::Dataset> datasets;
  Rng rng(8);
  for (int tables : {1, 2}) {
    data::DatasetGenParams p;
    p.min_tables = p.max_tables = tables;
    p.min_rows = p.max_rows = 300;
    datasets.push_back(data::GenerateDataset(p, &rng));
  }
  TestbedConfig cfg;
  cfg.num_train_queries = 20;
  cfg.num_test_queries = 10;
  auto& reg = obs::MetricsRegistry::Instance();
  const bool was_enabled = obs::MetricsEnabled();

  auto label_all = [&] {
    std::vector<TestbedResult> out;
    for (const auto& ds : datasets) {
      auto r = RunTestbed(ds, cfg);
      EXPECT_TRUE(r.ok());
      out.push_back(std::move(*r));
    }
    return out;
  };
  auto counts = [&] {
    std::vector<int64_t> c;
    for (ModelId id : AllModels()) {
      c.push_back(TimerCount("testbed.train_ms", id));
      c.push_back(TimerCount("testbed.infer_us", id));
    }
    return c;
  };

  // Dormant metrics record nothing.
  reg.Disable();
  std::vector<int64_t> before = counts();
  std::vector<TestbedResult> dormant = label_all();
  EXPECT_EQ(counts(), before);

  // Enabled: one train and one inference sample per model per dataset.
  reg.Enable();
  std::vector<TestbedResult> recorded = label_all();
  std::vector<int64_t> after = counts();
  if (!was_enabled) reg.Disable();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], static_cast<int64_t>(datasets.size()))
        << ModelName(AllModels()[i / 2]) << (i % 2 ? " infer" : " train");
  }

  // Labels do not depend on whether the timers record.
  for (size_t d = 0; d < datasets.size(); ++d) {
    ASSERT_EQ(dormant[d].models.size(), recorded[d].models.size());
    for (size_t m = 0; m < dormant[d].models.size(); ++m) {
      const ModelPerformance& a = dormant[d].models[m];
      const ModelPerformance& b = recorded[d].models[m];
      EXPECT_EQ(std::memcmp(&a.qerror.mean, &b.qerror.mean, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&a.latency_mean_ms, &b.latency_mean_ms,
                            sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace autoce::ce
