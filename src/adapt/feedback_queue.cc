#include "adapt/feedback_queue.h"

#include <algorithm>
#include <utility>

#include "util/fault.h"
#include "util/snapshot.h"

namespace autoce::adapt {

FeedbackQueue::FeedbackQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      stats_export_("adapt.queue", [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return ExportedFields(stats_, items_.size());
      }) {}

Offered FeedbackQueue::Offer(data::Dataset dataset,
                             featgraph::FeatureGraph graph,
                             double distance) {
  uint64_t fingerprint = featgraph::GraphFingerprint(graph);
  // Decided before taking mu_: a tripped fault counts itself in the
  // metrics registry, which must never be entered under mu_.
  const bool fault =
      util::FaultPoint(util::fault_sites::kAdaptEnqueue, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.offered;

  if (fault) {
    ++stats_.rejected_fault;
    return Offered::kRejectedFault;
  }
  for (const OodCandidate& pending : items_) {
    if (pending.fingerprint == fingerprint) {
      ++stats_.deduped;
      return Offered::kDuplicate;
    }
  }

  bool evicted = false;
  if (items_.size() >= capacity_) {
    // Lowest priority = smallest distance, newest (largest sequence)
    // among equals. The new candidate only displaces a STRICTLY less
    // OOD one, so ties keep the earlier arrival — deterministic either
    // way.
    auto victim = items_.begin();
    for (auto it = std::next(items_.begin()); it != items_.end(); ++it) {
      if (it->distance < victim->distance ||
          (it->distance == victim->distance &&
           it->sequence > victim->sequence)) {
        victim = it;
      }
    }
    if (victim->distance >= distance) {
      ++stats_.rejected_full;
      return Offered::kRejectedFull;
    }
    items_.erase(victim);
    ++stats_.evicted;
    evicted = true;
  }

  OodCandidate item;
  item.dataset = std::move(dataset);
  item.graph = std::move(graph);
  item.distance = distance;
  item.sequence = next_sequence_++;
  item.fingerprint = fingerprint;
  items_.push_back(std::move(item));
  ++stats_.admitted;
  // Crash window: the candidate is admitted but the queue is in-memory
  // by design — dying here loses pending feedback, never the durable
  // model (the recovery harness re-offers the stream on restart).
  util::KillPoint(util::kill_sites::kAdaptEnqueue, fingerprint);
  return evicted ? Offered::kAdmittedEvicting : Offered::kAdmitted;
}

std::vector<OodCandidate> FeedbackQueue::DrainBatch(std::size_t max_items) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OodCandidate> batch;
  // Drain in arrival order (the deque is sequence-sorted: eviction
  // removes from the middle but never reorders).
  std::size_t n = std::min(max_items, items_.size());
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  stats_.drained += n;
  return batch;
}

std::size_t FeedbackQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

FeedbackQueueStats FeedbackQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace autoce::adapt
