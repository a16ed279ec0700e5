// Miniature soak drill (DESIGN.md §5.12) sized for the default ctest
// run: a handful of ticks of serve + adapt under a seeded chaos
// schedule with kill/restart cycles, checking the harness's standing
// invariants end to end — and its two determinism contracts (unarmed
// replay and worker-count independence) on a corpus small enough to
// finish in seconds.
#include "adapt/soak.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/fault.h"
#include "util/snapshot.h"

namespace autoce::adapt {
namespace {

std::string FreshStoreDir(const std::string& name) {
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

/// The smoke-scale soak: short, but still multi-phase chaos with
/// kill/restart cycles and every default fault site in the pool.
SoakConfig SmokeConfig(const std::string& dir) {
  SoakConfig config;
  config.seed = 1234;
  config.ticks = 6;
  config.items_per_tick = 2;
  config.requests_per_tick = 3;
  config.chaos.phase_ticks = 2;
  config.chaos.kill_events = 2;
  config.chaos.min_concurrent_sites = 1;
  config.chaos.max_concurrent_sites = 3;
  config.chaos.calm_fraction = 0.25;
  config.store_dir = dir;
  return config;
}

class SoakSmokeTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjection::Instance().Disable(); }
};

TEST_F(SoakSmokeTest, ArmedSoakHoldsInvariantsAndEndsDurable) {
  SoakConfig config = SmokeConfig(FreshStoreDir("soak_smoke_armed"));
  auto report = RunSoak(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // RunSoak itself enforces the invariants; what's left to assert is
  // that the run actually exercised what it claims to.
  EXPECT_EQ(report->ticks.size(), config.ticks);
  EXPECT_EQ(report->kills, 2u);
  EXPECT_GE(report->max_concurrent_sites, 3);
  EXPECT_EQ(report->items_offered, config.ticks * config.items_per_tick);
  EXPECT_EQ(report->requests, config.ticks * config.requests_per_tick);
  EXPECT_TRUE(report->ended_durable);
  EXPECT_GT(report->final_generation, 0u);
  EXPECT_NE(report->final_digest, 0u);
  EXPECT_GT(report->items_applied, 0u);
  // Generations never regress tick over tick (also checked inside the
  // driver; restated here so the contract shows up in the test log).
  uint64_t prev = 0;
  for (const auto& row : report->ticks) {
    EXPECT_GE(row.generation, prev) << "tick " << row.tick;
    prev = row.generation;
  }
  // The soak reports the active chaos seed for manifests.
  EXPECT_EQ(util::ActiveChaosSeed(), config.seed);
}

TEST_F(SoakSmokeTest, UnarmedReplayIsBitIdentical) {
  SoakConfig armed = SmokeConfig(FreshStoreDir("soak_smoke_replay_a"));
  auto armed_report = RunSoak(armed);
  ASSERT_TRUE(armed_report.ok()) << armed_report.status().ToString();
  ASSERT_GE(armed_report->kills, 2u);

  // Same seed, same faults, kills disabled: kill cycles happen at tick
  // starts with a drained queue, so the item stream and every
  // content-keyed decision are identical — the replay must land on the
  // same model bits and the same durable generation.
  SoakConfig replay = SmokeConfig(FreshStoreDir("soak_smoke_replay_b"));
  replay.arm_kills = false;
  auto replay_report = RunSoak(replay);
  ASSERT_TRUE(replay_report.ok()) << replay_report.status().ToString();
  EXPECT_EQ(replay_report->kills, 0u);

  EXPECT_EQ(replay_report->final_digest, armed_report->final_digest);
  EXPECT_EQ(replay_report->final_generation, armed_report->final_generation);
  EXPECT_EQ(replay_report->items_applied, armed_report->items_applied);
  EXPECT_EQ(replay_report->labels_sentinel, armed_report->labels_sentinel);
  EXPECT_EQ(replay_report->items_quarantined,
            armed_report->items_quarantined);
}

TEST_F(SoakSmokeTest, WorkerCountDoesNotChangeTheBits) {
  // Budgets stay unlimited here: clock observation order under parallel
  // labeling is scheduler-dependent, so clock-based budgets are the one
  // knob excluded from the worker-determinism contract.
  uint64_t digest1 = 0;
  uint64_t generation1 = 0;
  for (int workers : {1, 2, 4}) {
    SoakConfig config = SmokeConfig(
        FreshStoreDir("soak_smoke_workers_" + std::to_string(workers)));
    config.num_workers = workers;
    auto report = RunSoak(config);
    ASSERT_TRUE(report.ok())
        << "workers=" << workers << ": " << report.status().ToString();
    if (workers == 1) {
      digest1 = report->final_digest;
      generation1 = report->final_generation;
      continue;
    }
    EXPECT_EQ(report->final_digest, digest1) << "workers=" << workers;
    EXPECT_EQ(report->final_generation, generation1)
        << "workers=" << workers;
  }
}

TEST_F(SoakSmokeTest, TightBudgetsDegradeInsteadOfWedging) {
  SoakConfig config = SmokeConfig(FreshStoreDir("soak_smoke_tight"));
  // Every clock look burns 5 simulated ms against a 10 ms deadline and
  // a 10 ms label budget — most requests shed, most labels expire, and
  // the run must STILL hold its invariants and end durable.
  config.request_deadline_ms = 10.0;
  config.label_budget_ms_per_batch = 10.0;
  config.arm_faults = false;  // isolate budget pressure from chaos
  auto report = RunSoak(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->deadline_shed, 0u);
  EXPECT_GT(report->labels_budget_expired, 0u);
  EXPECT_GT(report->ShedRate(), 0.0);
  EXPECT_TRUE(report->ended_durable);
}

}  // namespace
}  // namespace autoce::adapt
