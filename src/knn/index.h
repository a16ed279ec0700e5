#ifndef AUTOCE_KNN_INDEX_H_
#define AUTOCE_KNN_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

namespace autoce::knn {

/// One retrieved neighbor: Euclidean distance and the member index the
/// index was built with.
struct Neighbor {
  double distance = 0.0;
  size_t index = 0;
};

/// \brief Deterministic exact K-nearest-neighbor index over embeddings.
///
/// This is the one home of neighbor-selection semantics for the advisor
/// (Stage 4 / Eq. 13), the validation D-error, and the serving layer,
/// and the advisor's only copy of its RCS embeddings:
///
/// * Members flagged unusable at build time (non-finite embeddings) are
///   never retrieved.
/// * Neighbors are ordered by the pair `(distance, index)`, so ties
///   break on the smaller member index — the same deterministic order
///   the historical `partial_sort` over `(distance, index)` pairs
///   produced, at any thread count. Internally the order is tracked as
///   `(squared distance, index)`: sqrt is monotone, so this refines the
///   historical order — the only divergence is when two *distinct*
///   squared distances round to the same sqrt, where the smaller
///   squared distance now wins before the index tie-break. The reported
///   distance is the same `sqrt(SquaredL2)` bits as before.
/// * A non-finite query embedding retrieves nothing (callers degrade).
///
/// A query is one linear scan of a contiguous row-major copy of the
/// members with `util::simd::SquaredL2`, whose fixed reduction order
/// makes every neighbor list bit-identical at every dispatch level. At
/// RCS scale (16-d, tens to about a thousand members) a VP-tree or an
/// int8 candidate tier saves no measurable end-to-end time; see
/// DESIGN.md §5.8.
class Index {
 public:
  Index() = default;

  /// Builds an index over `points` (all rows must share one dimension).
  /// `usable` (empty = all usable) marks members that may be retrieved;
  /// the advisor passes its non-finite-embedding mask here.
  static Index Build(const std::vector<std::vector<double>>& points,
                     std::vector<char> usable = {});

  /// Total number of members, including unusable ones.
  size_t size() const { return usable_.size(); }

  /// Number of members eligible for retrieval.
  size_t usable_size() const { return usable_count_; }

  /// The embedding of member `i`.
  std::span<const double> Point(size_t i) const {
    return std::span<const double>(flat_.data() + i * dim_, dim_);
  }

  /// Whether member `i` can be retrieved.
  bool usable(size_t i) const { return usable_[i] != 0; }

  /// The k nearest usable members to `query` in `(distance, index)`
  /// order. `exclude` (optional) skips one member — leave-one-out
  /// queries; `allowed` (optional, size() entries) restricts retrieval
  /// to members with a non-zero entry — the validation split filter.
  /// A non-finite query returns an empty list.
  std::vector<Neighbor> Query(std::span<const double> query, size_t k,
                              size_t exclude = SIZE_MAX,
                              const std::vector<char>* allowed = nullptr) const;

 private:
  std::vector<char> usable_;
  size_t usable_count_ = 0;
  size_t dim_ = 0;
  /// Row-major member embeddings, size() * dim_ doubles.
  std::vector<double> flat_;
};

}  // namespace autoce::knn

#endif  // AUTOCE_KNN_INDEX_H_
