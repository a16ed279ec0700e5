#include "knn/index.h"

#include <algorithm>
#include <cmath>

#include "nn/matrix.h"
#include "util/logging.h"
#include "util/simd.h"

namespace autoce::knn {

namespace {

/// Running k-best entry in squared-distance space.
struct Candidate {
  double sq = 0.0;
  size_t index = 0;
};

/// Lexicographic (squared distance, index) order — the tie-break
/// contract. sqrt is strictly monotone, so this is the historical
/// (distance, index) order exactly.
bool Better(const Candidate& a, const Candidate& b) {
  return a.sq < b.sq || (a.sq == b.sq && a.index < b.index);
}

/// Offers member `i` at squared distance `sq` to the running k-best
/// list `best` (kept sorted by `Better`; non-finite rejected).
void Offer(size_t i, double sq, size_t k, std::vector<Candidate>* best) {
  // Non-finite distances are never neighbors (the historical scan
  // stopped at the first non-finite entry).
  if (!std::isfinite(sq)) return;
  Candidate c{sq, i};
  if (best->size() == k && !Better(c, best->back())) return;
  best->insert(std::lower_bound(best->begin(), best->end(), c, Better), c);
  if (best->size() > k) best->pop_back();
}

}  // namespace

Index Index::Build(const std::vector<std::vector<double>>& points,
                   std::vector<char> usable) {
  Index index;
  if (usable.empty()) {
    index.usable_.assign(points.size(), 1);
  } else {
    AUTOCE_CHECK(usable.size() == points.size());
    index.usable_ = std::move(usable);
  }
  index.usable_count_ = static_cast<size_t>(
      std::count(index.usable_.begin(), index.usable_.end(), 1));
  index.dim_ = points.empty() ? 0 : points[0].size();
  index.flat_.reserve(points.size() * index.dim_);
  for (const std::vector<double>& p : points) {
    AUTOCE_CHECK(p.size() == index.dim_);
    index.flat_.insert(index.flat_.end(), p.begin(), p.end());
  }
  return index;
}

std::vector<Neighbor> Index::Query(std::span<const double> query, size_t k,
                                   size_t exclude,
                                   const std::vector<char>* allowed) const {
  AUTOCE_CHECK(allowed == nullptr || allowed->size() == size());
  std::vector<Neighbor> out;
  if (k == 0 || usable_count_ == 0 || !nn::IsFinite(query)) return out;
  AUTOCE_CHECK(query.size() == dim_);
  std::vector<Candidate> best;
  best.reserve(k + 1);
  for (size_t i = 0; i < size(); ++i) {
    if (!usable_[i] || i == exclude) continue;
    if (allowed != nullptr && !(*allowed)[i]) continue;
    Offer(i, util::simd::SquaredL2(query.data(), flat_.data() + i * dim_, dim_),
          k, &best);
  }
  out.reserve(best.size());
  for (const Candidate& c : best) {
    out.push_back(Neighbor{std::sqrt(c.sq), c.index});
  }
  return out;
}

}  // namespace autoce::knn
