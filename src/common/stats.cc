#include "common/stats.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace cvcp {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double Mean(std::span<const double> v) {
  if (v.empty()) return kNaN;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double SampleVariance(std::span<const double> v) {
  if (v.size() < 2) return kNaN;
  const double m = Mean(v);
  double ss = 0.0;
  for (double x : v) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(v.size() - 1);
}

double SampleStdDev(std::span<const double> v) {
  const double var = SampleVariance(v);
  return std::isnan(var) ? kNaN : std::sqrt(var);
}

double QuantileSorted(std::span<const double> sorted, double q) {
  CVCP_CHECK_GE(q, 0.0);
  CVCP_CHECK_LE(q, 1.0);
  if (sorted.empty()) return kNaN;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  CVCP_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  if (n < 2) return kNaN;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return kNaN;
  return sxy / std::sqrt(sxx * syy);
}

double LogGamma(double x) {
  // Lanczos approximation, g = 7, n = 9 coefficients.
  static const double kCoeffs[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  CVCP_CHECK_GT(x, 0.0);
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoeffs[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) {
    a += kCoeffs[i] / (x + static_cast<double>(i));
  }
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
         std::log(a);
}

namespace {

/// Continued-fraction evaluation for the incomplete beta function
/// (Numerical-Recipes style modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3.0e-12;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double dm = static_cast<double>(m);
    const double m2 = 2.0 * dm;
    // Even step.
    double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  CVCP_CHECK_GT(a, 0.0);
  CVCP_CHECK_GT(b, 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  // Use the continued fraction directly where it converges fast, else the
  // symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a).
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  CVCP_CHECK_GT(df, 0.0);
  if (std::isnan(t)) return kNaN;
  // I_x(df/2, 1/2) with x = df / (df + t^2) gives the two-tail mass.
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

bool PairedTTestResult::SignificantAt(double alpha) const {
  return !std::isnan(p_value) && p_value < alpha;
}

PairedTTestResult PairedTTest(std::span<const double> a,
                              std::span<const double> b) {
  CVCP_CHECK_EQ(a.size(), b.size());
  PairedTTestResult res;
  res.n = a.size();
  std::vector<double> diffs(a.size());
  for (size_t i = 0; i < a.size(); ++i) diffs[i] = a[i] - b[i];
  res.mean_diff = Mean(diffs);
  if (a.size() < 2) {
    res.t_statistic = kNaN;
    res.p_value = kNaN;
    return res;
  }
  const double sd = SampleStdDev(diffs);
  if (sd == 0.0) {
    // All differences identical: degenerate. Identical samples are clearly
    // non-significant; a constant non-zero shift is "infinitely"
    // significant.
    res.t_statistic = res.mean_diff == 0.0
                          ? 0.0
                          : std::numeric_limits<double>::infinity() *
                                (res.mean_diff > 0 ? 1.0 : -1.0);
    res.p_value = res.mean_diff == 0.0 ? 1.0 : 0.0;
    return res;
  }
  const double n = static_cast<double>(a.size());
  res.t_statistic = res.mean_diff / (sd / std::sqrt(n));
  const double df = n - 1.0;
  const double cdf = StudentTCdf(std::fabs(res.t_statistic), df);
  res.p_value = 2.0 * (1.0 - cdf);
  return res;
}

}  // namespace cvcp
