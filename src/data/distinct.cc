#include "data/distinct.h"

#include <algorithm>
#include <iterator>

namespace autoce::data {

DistinctValues::DistinctValues(const std::vector<int32_t>& values) {
  if (values.empty()) return;
  auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  Mark(values, *lo, *hi);
}

DistinctValues::DistinctValues(const std::vector<int32_t>& values, int32_t lo,
                               int32_t hi) {
  Mark(values, lo, hi);
}

void DistinctValues::Mark(const std::vector<int32_t>& values, int32_t lo,
                          int32_t hi) {
  lo_ = lo;
  hi_ = hi;
  const int64_t span = static_cast<int64_t>(hi) - lo + 1;
  use_bitmap_ = span > 0 && span <= kMaxSpanPerValue *
                                        static_cast<int64_t>(values.size());
  int64_t outside = 0;
  if (use_bitmap_) {
    bitmap_.assign(static_cast<size_t>(span), 0);
    int64_t marked = 0;
    for (int32_t v : values) {
      if (v < lo || v > hi) {
        ++outside;
        continue;
      }
      uint8_t& seen = bitmap_[static_cast<size_t>(static_cast<int64_t>(v) - lo)];
      marked += seen ^ 1;
      seen = 1;
    }
    count_ = marked;
  } else {
    sorted_.reserve(values.size());
    for (int32_t v : values) {
      if (v < lo || v > hi) {
        ++outside;
      } else {
        sorted_.push_back(v);
      }
    }
    std::sort(sorted_.begin(), sorted_.end());
    sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
    count_ = static_cast<int64_t>(sorted_.size());
  }
  out_of_range_ = outside;
}

int64_t DistinctValues::Erase(const std::vector<int32_t>& probe) {
  int64_t erased = 0;
  if (use_bitmap_) {
    for (int32_t v : probe) {
      if (v < lo_ || v > hi_) continue;
      uint8_t& seen =
          bitmap_[static_cast<size_t>(static_cast<int64_t>(v) - lo_)];
      erased += seen;
      seen = 0;
    }
  } else {
    std::vector<int32_t> sorted_probe(probe);
    std::sort(sorted_probe.begin(), sorted_probe.end());
    std::vector<int32_t> kept;
    kept.reserve(sorted_.size());
    std::set_difference(sorted_.begin(), sorted_.end(), sorted_probe.begin(),
                        sorted_probe.end(), std::back_inserter(kept));
    erased = static_cast<int64_t>(sorted_.size() - kept.size());
    sorted_.swap(kept);
  }
  count_ -= erased;
  return erased;
}

}  // namespace autoce::data
