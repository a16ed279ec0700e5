#ifndef AUTOCE_UTIL_STATS_H_
#define AUTOCE_UTIL_STATS_H_

#include <cstdint>
#include <vector>

namespace autoce {

/// \brief Descriptive statistics over numeric sequences.
///
/// These are the primitives behind both the feature-extraction stage
/// (skewness, kurtosis, correlation of columns; paper Sec. V-A) and the
/// score aggregation of the CE testbed (mean Q-error, percentiles).
namespace stats {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Population standard deviation; 0 for fewer than 2 elements.
double StdDev(const std::vector<double>& v);

/// Sample (Fisher-Pearson) skewness g1; 0 when undefined.
double Skewness(const std::vector<double>& v);

/// Excess kurtosis g2; 0 when undefined.
double Kurtosis(const std::vector<double>& v);

/// \brief Mean, population SD, skewness, excess kurtosis, min and max.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
  double skewness = 0.0;
  double kurtosis = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// All of `Moments` in three passes: the sum with min and max, the
/// squared deviations, then the cube and fourth-power sums. The first
/// four fields equal Mean, StdDev, Skewness and Kurtosis of the same
/// values as doubles, bit for bit (same per-element expressions, same
/// order, same guards). Min and max are 0 for empty input.
Moments ComputeMoments(const std::vector<int32_t>& v);
Moments ComputeMoments(const std::vector<double>& v);

/// Pearson correlation coefficient; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Fraction of positions where a[i] == b[i] (the paper's positional
/// column-correlation notion, the inverse of generation step F2).
double PositionalMatchRatio(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b);

/// p-th percentile (p in [0, 100]) with linear interpolation. Copies and
/// sorts internally; 0 for empty input.
double Percentile(std::vector<double> v, double p);

/// Minimum / maximum; 0 for empty input.
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Geometric mean of strictly positive values; 0 for empty input.
double GeometricMean(const std::vector<double>& v);

}  // namespace stats
}  // namespace autoce

#endif  // AUTOCE_UTIL_STATS_H_
