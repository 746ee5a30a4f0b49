#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/distance.h"
#include "common/distance_kernels.h"
#include "common/strings.h"

namespace cvcp {

namespace {

Status ValidateConfig(const Matrix& points, const KMeansConfig& config) {
  if (config.k < 1) {
    return Status::InvalidArgument(Format("k must be >= 1, got %d", config.k));
  }
  if (static_cast<size_t>(config.k) > points.rows()) {
    return Status::InvalidArgument(
        Format("k=%d exceeds number of points (%zu)", config.k,
               points.rows()));
  }
  if (config.max_iters < 1) {
    return Status::InvalidArgument("max_iters must be >= 1");
  }
  if (config.n_init < 1) {
    return Status::InvalidArgument("n_init must be >= 1");
  }
  return Status::OK();
}

/// One Lloyd run from the given initial centroids.
KMeansResult LloydFromInit(const Matrix& points, const KMeansConfig& config,
                           Matrix centroids, Rng* rng) {
  const size_t n = points.rows();
  const size_t k = static_cast<size_t>(config.k);
  std::vector<int> assignment(n, 0);
  double prev_inertia = std::numeric_limits<double>::infinity();
  double inertia = prev_inertia;
  int iter = 0;
  bool converged = false;

  for (iter = 0; iter < config.max_iters; ++iter) {
    // Assignment step.
    inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d =
            SquaredEuclideanDistance(points.Row(i), centroids.Row(c));
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      assignment[i] = best_c;
      inertia += best;
    }

    // Update step.
    Matrix sums(k, points.cols(), 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(assignment[i]);
      auto row = points.Row(i);
      auto acc = sums.MutableRow(c);
      for (size_t m = 0; m < row.size(); ++m) acc[m] += row[m];
      ++counts[c];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        centroids.SetRow(c, points.Row(rng->Index(n)));
        continue;
      }
      auto acc = sums.MutableRow(c);
      for (size_t m = 0; m < acc.size(); ++m) {
        acc[m] /= static_cast<double>(counts[c]);
      }
      centroids.SetRow(c, sums.Row(c));
    }

    if (std::isfinite(prev_inertia) &&
        prev_inertia - inertia <=
            config.tol * std::max(prev_inertia, 1e-12)) {
      converged = true;
      ++iter;
      break;
    }
    prev_inertia = inertia;
  }

  KMeansResult result;
  result.clustering = Clustering(std::move(assignment));
  result.centroids = std::move(centroids);
  result.inertia = inertia;
  result.iterations = iter;
  result.converged = converged;
  return result;
}

}  // namespace

Matrix KMeansPlusPlusInit(const Matrix& points, int k, Rng* rng) {
  CVCP_CHECK_GE(k, 1);
  CVCP_CHECK_LE(static_cast<size_t>(k), points.rows());
  Matrix centroids(static_cast<size_t>(k), points.cols());
  KMeansPlusPlusFill(points, 0, &centroids, rng);
  return centroids;
}

void SquaredDistanceColumn(const Matrix& points, const double* c, double* out,
                           size_t stride) {
  const DistanceKernels& kernels = GetDistanceKernels();
  const size_t n = points.rows();
  const size_t d = points.cols();
  const double* x = points.data().data();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double batch[4];
    kernels.squared_euclidean_x4(c, x + i * d, d, d, batch);
    for (size_t j = 0; j < 4; ++j) out[(i + j) * stride] = batch[j];
  }
  for (; i < n; ++i) {
    out[i * stride] = kernels.squared_euclidean(c, x + i * d, d);
  }
}

size_t KMeansPlusPlusFill(const Matrix& points, size_t filled,
                          Matrix* centroids, Rng* rng, double* d2) {
  const size_t n = points.rows();
  const size_t k = centroids->rows();
  CVCP_CHECK_EQ(centroids->cols(), points.cols());
  CVCP_CHECK_LE(filled, k);
  if (filled == k) return k;

  // Row h's column lives in d2 (stride k) when the caller keeps them,
  // else in one scratch column; min_d2 folds each in as it is measured.
  std::vector<double> scratch(d2 == nullptr ? n : 0);
  const size_t stride = d2 == nullptr ? 1 : k;
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  auto lower_min_d2 = [&](size_t h, bool measure) {
    double* column = d2 == nullptr ? scratch.data() : d2 + h;
    if (measure) {
      SquaredDistanceColumn(points, centroids->Row(h).data(), column, stride);
    }
    for (size_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(min_d2[i], column[i * stride]);
    }
  };
  for (size_t h = 0; h < filled; ++h) lower_min_d2(h, d2 == nullptr);

  for (; filled < k; ++filled) {
    double total = 0.0;
    if (filled > 0) {
      for (double v : min_d2) total += v;
    }
    size_t chosen;
    if (total <= 0.0) {
      // No row placed yet, or every point coincides with a placed row.
      chosen = rng->Index(n);
    } else {
      double r = rng->NextDouble() * total;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centroids->SetRow(filled, points.Row(chosen));
    // The last row's distances would never be read.
    if (filled + 1 < k) lower_min_d2(filled, true);
  }
  return k - 1;
}

Result<KMeansResult> RunKMeans(const Matrix& points,
                               const KMeansConfig& config, Rng* rng) {
  CVCP_RETURN_IF_ERROR(ValidateConfig(points, config));

  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < config.n_init; ++attempt) {
    Matrix init = KMeansPlusPlusInit(points, config.k, rng);
    KMeansResult run = LloydFromInit(points, config, std::move(init), rng);
    if (run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

}  // namespace cvcp
