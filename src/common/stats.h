#ifndef CVCP_COMMON_STATS_H_
#define CVCP_COMMON_STATS_H_

/// \file
/// Descriptive statistics and the inferential tools the paper's evaluation
/// uses: Pearson correlation (Tables 1-4), sample mean/std (Tables 5-16),
/// quartiles (Figures 9-12 boxplots), and the paired two-sided t-test at
/// alpha = 0.05 used for the significance claims in every table caption.
/// The Student-t CDF is computed from scratch via the regularized
/// incomplete beta function (continued fraction; Lentz's algorithm).

#include <cstddef>
#include <limits>
#include <span>

namespace cvcp {

/// Arithmetic mean; NaN for empty input.
double Mean(std::span<const double> v);

/// Unbiased sample variance (n-1 denominator); NaN for n < 2.
double SampleVariance(std::span<const double> v);

/// sqrt(SampleVariance).
double SampleStdDev(std::span<const double> v);

/// Linear-interpolation quantile of *sorted* data, q in [0, 1].
double QuantileSorted(std::span<const double> sorted, double q);

/// Pearson product-moment correlation. Returns NaN if either side has zero
/// variance (correlation undefined), matching how the paper's per-trial
/// correlations must be skipped when a score series is flat.
double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/// Natural log of the gamma function (Lanczos approximation).
double LogGamma(double x);

/// Regularized incomplete beta function I_x(a, b).
double RegularizedIncompleteBeta(double a, double b, double x);

/// CDF of Student's t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Result of a paired two-sided t-test between two equal-length samples.
/// Default-constructed, every statistic is NaN ("no test ran"), so
/// SignificantAt is false — never treat an absent test as significant.
struct PairedTTestResult {
  /// NaN when undefined (n < 2 or zero-variance diffs).
  double t_statistic = std::numeric_limits<double>::quiet_NaN();
  double p_value = std::numeric_limits<double>::quiet_NaN();  ///< two-sided
  double mean_diff = std::numeric_limits<double>::quiet_NaN();  ///< mean(a-b)
  size_t n = 0;  ///< number of pairs

  /// True if the difference is significant at level `alpha`.
  bool SignificantAt(double alpha) const;
};

/// Paired two-sided t-test of H0: mean(a - b) == 0.
PairedTTestResult PairedTTest(std::span<const double> a,
                              std::span<const double> b);

}  // namespace cvcp

#endif  // CVCP_COMMON_STATS_H_
