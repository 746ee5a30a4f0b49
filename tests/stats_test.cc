#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cvcp {
namespace {

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{5}), 5.0);
  EXPECT_TRUE(std::isnan(Mean(std::vector<double>{})));
}

TEST(VarianceTest, SampleVarianceUsesNMinusOne) {
  // var([1,2,3,4]) with n-1 = 5/3.
  EXPECT_NEAR(SampleVariance(std::vector<double>{1, 2, 3, 4}), 5.0 / 3.0,
              1e-12);
  EXPECT_TRUE(std::isnan(SampleVariance(std::vector<double>{1})));
  EXPECT_DOUBLE_EQ(SampleVariance(std::vector<double>{3, 3, 3}), 0.0);
}

TEST(StdDevTest, SqrtOfVariance) {
  EXPECT_NEAR(SampleStdDev(std::vector<double>{1, 2, 3, 4}),
              std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(QuantileTest, LinearInterpolation) {
  std::vector<double> sorted = {0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.1), 0.4);
}

TEST(PearsonTest, PerfectCorrelations) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y_pos = {2, 4, 6, 8};
  std::vector<double> y_neg = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, y_neg), -1.0, 1e-12);
}

TEST(PearsonTest, KnownModerateValue) {
  // Hand-computed: cov = 8, var_x = var_y = 10 => r = 0.8.
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 1, 4, 3, 5};
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.8, 1e-12);
}

TEST(PearsonTest, UndefinedForFlatSeries) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {1, 2, 3};
  EXPECT_TRUE(std::isnan(PearsonCorrelation(x, y)));
  EXPECT_TRUE(std::isnan(PearsonCorrelation(y, x)));
}

TEST(LogGammaTest, KnownValues) {
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-10);          // Gamma(1) = 1
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-10);          // Gamma(2) = 1
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-9);  // Gamma(5) = 4!
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-9);
}

TEST(IncompleteBetaTest, BoundaryAndSymmetry) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, 0.37), 0.37, 1e-9);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  const double v = RegularizedIncompleteBeta(2.5, 4.0, 0.3);
  const double w = RegularizedIncompleteBeta(4.0, 2.5, 0.7);
  EXPECT_NEAR(v, 1.0 - w, 1e-9);
}

TEST(StudentTCdfTest, SymmetryAndKnownQuantiles) {
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-9);
  // CDF symmetry.
  EXPECT_NEAR(StudentTCdf(1.3, 7) + StudentTCdf(-1.3, 7), 1.0, 1e-9);
  // t_{0.975, 10} = 2.228139: CDF(2.228139, 10) ~= 0.975.
  EXPECT_NEAR(StudentTCdf(2.228139, 10), 0.975, 1e-4);
  // t_{0.95, 4} = 2.131847.
  EXPECT_NEAR(StudentTCdf(2.131847, 4), 0.95, 1e-4);
  // Large df approaches the normal: CDF(1.96, 1e6) ~= 0.975.
  EXPECT_NEAR(StudentTCdf(1.96, 1e6), 0.975, 1e-3);
}

TEST(PairedTTestTest, KnownExample) {
  // diffs = {1, 1, 1, 1, 2}: mean=1.2, sd=0.4472, t = 6.0, df = 4,
  // two-sided p ~= 0.003883.
  std::vector<double> a = {2, 3, 4, 5, 7};
  std::vector<double> b = {1, 2, 3, 4, 5};
  const PairedTTestResult r = PairedTTest(a, b);
  EXPECT_EQ(r.n, 5u);
  EXPECT_NEAR(r.mean_diff, 1.2, 1e-12);
  EXPECT_NEAR(r.t_statistic, 6.0, 1e-9);
  EXPECT_NEAR(r.p_value, 0.003883, 1e-4);
  EXPECT_TRUE(r.SignificantAt(0.05));
  EXPECT_FALSE(r.SignificantAt(0.001));
}

TEST(PairedTTestTest, IdenticalSamplesNotSignificant) {
  std::vector<double> a = {1, 2, 3};
  const PairedTTestResult r = PairedTTest(a, a);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
  EXPECT_FALSE(r.SignificantAt(0.05));
}

TEST(PairedTTestTest, ConstantShiftIsMaximallySignificant) {
  std::vector<double> a = {2, 3, 4};
  std::vector<double> b = {1, 2, 3};
  const PairedTTestResult r = PairedTTest(a, b);
  EXPECT_DOUBLE_EQ(r.p_value, 0.0);
  EXPECT_TRUE(r.SignificantAt(0.05));
}

TEST(PairedTTestTest, TooFewPairsUndefined) {
  std::vector<double> a = {1};
  std::vector<double> b = {2};
  const PairedTTestResult r = PairedTTest(a, b);
  EXPECT_TRUE(std::isnan(r.p_value));
  EXPECT_FALSE(r.SignificantAt(0.05));
}

TEST(PairedTTestTest, SymmetricInSign) {
  std::vector<double> a = {5, 6, 7, 9};
  std::vector<double> b = {4, 7, 6, 8};
  const PairedTTestResult ab = PairedTTest(a, b);
  const PairedTTestResult ba = PairedTTest(b, a);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
  EXPECT_NEAR(ab.t_statistic, -ba.t_statistic, 1e-12);
}

}  // namespace
}  // namespace cvcp
