// Admission/eviction contract of the bounded feedback queue
// (DESIGN.md §5.11): deterministic in the offered stream, dedup by
// content fingerprint, eviction only by strictly higher priority, and
// the injected `adapt.enqueue` fault drops-and-counts without failing
// the caller.
#include "adapt/feedback_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "util/fault.h"

namespace autoce::adapt {
namespace {

/// A small pool of distinct datasets + feature graphs to offer.
class FeedbackQueueTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    data::DatasetGenParams gen;
    gen.min_tables = 1;
    gen.max_tables = 2;
    gen.min_rows = 60;
    gen.max_rows = 120;
    gen.min_columns = 2;
    gen.max_columns = 3;
    datasets_ = new std::vector<data::Dataset>(
        data::GenerateCorpus(gen, 8, &rng));
    featgraph::FeatureExtractor fx;
    graphs_ = new std::vector<featgraph::FeatureGraph>();
    for (const auto& d : *datasets_) graphs_->push_back(fx.Extract(d));
  }

  static void TearDownTestSuite() {
    delete datasets_;
    delete graphs_;
    datasets_ = nullptr;
    graphs_ = nullptr;
  }

  static Offered Offer(FeedbackQueue* q, size_t i, double distance) {
    return q->Offer((*datasets_)[i], (*graphs_)[i], distance);
  }

  static std::vector<data::Dataset>* datasets_;
  static std::vector<featgraph::FeatureGraph>* graphs_;
};

std::vector<data::Dataset>* FeedbackQueueTest::datasets_ = nullptr;
std::vector<featgraph::FeatureGraph>* FeedbackQueueTest::graphs_ =
    nullptr;

TEST_F(FeedbackQueueTest, FingerprintIsContentKeyed) {
  // Same graph -> same fingerprint; distinct graphs -> distinct ones
  // (the pool is tiny, a collision would be a bug, not bad luck).
  for (size_t i = 0; i < graphs_->size(); ++i) {
    EXPECT_EQ(GraphFingerprint((*graphs_)[i]),
              GraphFingerprint((*graphs_)[i]));
    for (size_t j = i + 1; j < graphs_->size(); ++j) {
      EXPECT_NE(GraphFingerprint((*graphs_)[i]),
                GraphFingerprint((*graphs_)[j]))
          << i << " vs " << j;
    }
  }
}

TEST_F(FeedbackQueueTest, AdmitsAndDrainsInArrivalOrder) {
  FeedbackQueue q(8);
  EXPECT_EQ(q.capacity(), 8u);
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 1, 3.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 2, 2.0), Offered::kAdmitted);
  EXPECT_EQ(q.depth(), 3u);

  auto batch = q.DrainBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  // Arrival order, not priority order.
  EXPECT_EQ(batch[0].fingerprint, GraphFingerprint((*graphs_)[0]));
  EXPECT_EQ(batch[1].fingerprint, GraphFingerprint((*graphs_)[1]));
  EXPECT_EQ(batch[0].sequence, 0u);
  EXPECT_EQ(batch[1].sequence, 1u);
  EXPECT_EQ(q.depth(), 1u);

  auto rest = q.DrainBatch(100);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].fingerprint, GraphFingerprint((*graphs_)[2]));

  FeedbackQueueStats stats = q.stats();
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.drained, 3u);
}

TEST_F(FeedbackQueueTest, DedupsPendingByFingerprint) {
  FeedbackQueue q(8);
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kAdmitted);
  // Same graph again, even at a different distance: duplicate.
  EXPECT_EQ(Offer(&q, 0, 9.0), Offered::kDuplicate);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.stats().deduped, 1u);

  // Once drained it is no longer pending and re-admits (replay dedup
  // against the RCS is the pipeline's job, not the queue's).
  q.DrainBatch(1);
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kAdmitted);
}

TEST_F(FeedbackQueueTest, EvictsOnlyStrictlyLowerPriority) {
  FeedbackQueue q(2);
  EXPECT_EQ(Offer(&q, 0, 2.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 1, 5.0), Offered::kAdmitted);

  // Equal to the minimum pending distance: rejected, the earlier
  // arrival keeps its slot.
  EXPECT_EQ(Offer(&q, 2, 2.0), Offered::kRejectedFull);
  // Below the minimum: rejected.
  EXPECT_EQ(Offer(&q, 3, 1.0), Offered::kRejectedFull);
  // Above the minimum: the least-OOD pending item (index 0) is evicted.
  EXPECT_EQ(Offer(&q, 4, 3.0), Offered::kAdmittedEvicting);
  EXPECT_EQ(q.depth(), 2u);

  auto batch = q.DrainBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].fingerprint, GraphFingerprint((*graphs_)[1]));
  EXPECT_EQ(batch[1].fingerprint, GraphFingerprint((*graphs_)[4]));

  FeedbackQueueStats stats = q.stats();
  EXPECT_EQ(stats.rejected_full, 2u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.admitted, 3u);
}

TEST_F(FeedbackQueueTest, EvictionTieBreaksTowardNewerVictim) {
  FeedbackQueue q(2);
  // Two pending items at the same distance: the NEWER one (larger
  // sequence) is the victim, keeping the earlier arrival.
  EXPECT_EQ(Offer(&q, 0, 2.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 1, 2.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 2, 4.0), Offered::kAdmittedEvicting);

  auto batch = q.DrainBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].fingerprint, GraphFingerprint((*graphs_)[0]));
  EXPECT_EQ(batch[1].fingerprint, GraphFingerprint((*graphs_)[2]));
}

TEST_F(FeedbackQueueTest, ConcurrentOffersAtCapacityConserveCounts) {
  // Offer from several threads while a drainer empties the queue: the
  // bound must hold at every instant and the counters must conserve —
  // every offer is accounted for exactly once, every admitted item is
  // drained, evicted, or still pending.
  FeedbackQueue q(3);
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> drained_seen{0};

  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drained_seen.fetch_add(q.DrainBatch(2).size(),
                             std::memory_order_relaxed);
    }
    drained_seen.fetch_add(q.DrainBatch(q.capacity()).size(),
                           std::memory_order_relaxed);
  });
  std::vector<std::thread> offerers;
  offerers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    offerers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t item = static_cast<size_t>((t * kIters + i) % 8);
        double distance = 1.0 + static_cast<double>(i % 5);
        Offer(&q, item, distance);
        EXPECT_LE(q.depth(), q.capacity());
      }
    });
  }
  for (auto& th : offerers) th.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  FeedbackQueueStats stats = q.stats();
  EXPECT_EQ(stats.offered,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.offered, stats.admitted + stats.deduped +
                               stats.rejected_full + stats.rejected_fault);
  EXPECT_EQ(stats.admitted,
            stats.drained + stats.evicted + q.depth());
  EXPECT_EQ(stats.drained, drained_seen.load());
  EXPECT_EQ(stats.rejected_fault, 0u);
}

TEST_F(FeedbackQueueTest, ConcurrentEqualPriorityOffersNeverEvict) {
  // The eviction tie rule under concurrency: an offer EQUAL to the
  // minimum pending priority never evicts, so with the queue full of
  // equal-distance items every racing equal-distance offer must lose —
  // deterministically, no matter how the threads interleave.
  FeedbackQueue q(2);
  ASSERT_EQ(Offer(&q, 0, 5.0), Offered::kAdmitted);
  ASSERT_EQ(Offer(&q, 1, 5.0), Offered::kAdmitted);

  std::vector<std::thread> threads;
  std::atomic<int> evicting{0};
  std::atomic<int> rejected{0};
  for (size_t item = 2; item < 6; ++item) {
    threads.emplace_back([&, item] {
      for (int i = 0; i < 25; ++i) {
        Offered a = Offer(&q, item, 5.0);
        if (a == Offered::kAdmittedEvicting) ++evicting;
        if (a == Offered::kRejectedFull) ++rejected;
        EXPECT_NE(a, Offered::kAdmitted);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(evicting.load(), 0);
  EXPECT_EQ(rejected.load(), 4 * 25);
  EXPECT_EQ(q.stats().evicted, 0u);

  // The original residents survived the storm.
  auto batch = q.DrainBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].fingerprint, GraphFingerprint((*graphs_)[0]));
  EXPECT_EQ(batch[1].fingerprint, GraphFingerprint((*graphs_)[1]));
}

TEST_F(FeedbackQueueTest, SameOfferedStreamYieldsSameDrainedStream) {
  auto run = [&] {
    FeedbackQueue q(3);
    const double distances[8] = {1.5, 0.5, 2.5, 2.5, 0.1, 3.0, 1.0, 2.0};
    for (size_t i = 0; i < 8; ++i) Offer(&q, i, distances[i]);
    std::vector<uint64_t> out;
    for (const auto& item : q.DrainBatch(100)) {
      out.push_back(item.fingerprint);
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(FeedbackQueueTest, ZeroCapacityIsCoercedToOne) {
  FeedbackQueue q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kAdmitted);
  EXPECT_EQ(Offer(&q, 1, 2.0), Offered::kAdmittedEvicting);
  EXPECT_EQ(q.depth(), 1u);
}

TEST_F(FeedbackQueueTest, EnqueueFaultDropsAndCountsWithoutFailing) {
  auto& injection = util::FaultInjection::Instance();
  ASSERT_TRUE(
      injection.Configure(std::string(util::fault_sites::kAdaptEnqueue) +
                          ":1.0")
          .ok());
  FeedbackQueue q(8);
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kRejectedFault);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.stats().rejected_fault, 1u);
  EXPECT_EQ(q.stats().offered, 1u);
  injection.Disable();

  // With injection off the same offer admits: the fault only ever
  // drops the one candidate, it cannot wedge the queue.
  EXPECT_EQ(Offer(&q, 0, 1.0), Offered::kAdmitted);
}

}  // namespace
}  // namespace autoce::adapt
