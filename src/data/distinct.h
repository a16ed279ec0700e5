#ifndef AUTOCE_DATA_DISTINCT_H_
#define AUTOCE_DATA_DISTINCT_H_

#include <cstdint>
#include <vector>

namespace autoce::data {

/// \brief The set of distinct values of an int32 column.
///
/// Backs `Column::CountDistinct`, `Dataset::JoinCorrelation` and the PK
/// check of `Dataset::Validate`. Values are marked in a byte bitmap over
/// their span when the span is at most `kMaxSpanPerValue` bytes per
/// value; a sparser span (a few rows near INT32_MAX, a huge declared
/// domain) keeps a sorted, deduplicated copy instead. Any int32 input is
/// accepted, nothing is indexed outside the bitmap, and the memory is
/// O(values) whatever the values are.
class DistinctValues {
 public:
  static constexpr int64_t kMaxSpanPerValue = 8;

  /// Marks every value; the span is their observed [min, max].
  explicit DistinctValues(const std::vector<int32_t>& values);

  /// Marks the values inside [lo, hi] and counts the rest in
  /// `out_of_range()`. With the bitmap this is one pass, so a domain
  /// check and a uniqueness check share it.
  DistinctValues(const std::vector<int32_t>& values, int32_t lo, int32_t hi);

  /// Number of distinct marked values.
  int64_t count() const { return count_; }

  /// Constructor values that fell outside [lo, hi].
  int64_t out_of_range() const { return out_of_range_; }

  /// Unmarks every value of `probe`; returns how many distinct values
  /// were marked, i.e. |distinct(probe) ∩ marked|. `count()` drops by
  /// as much.
  int64_t Erase(const std::vector<int32_t>& probe);

 private:
  void Mark(const std::vector<int32_t>& values, int32_t lo, int32_t hi);

  int32_t lo_ = 0;
  int32_t hi_ = -1;
  bool use_bitmap_ = false;
  std::vector<uint8_t> bitmap_;  ///< bitmap_[v - lo_] is 1 when v is marked
  std::vector<int32_t> sorted_;  ///< otherwise: the sorted marked values
  int64_t count_ = 0;
  int64_t out_of_range_ = 0;
};

}  // namespace autoce::data

#endif  // AUTOCE_DATA_DISTINCT_H_
