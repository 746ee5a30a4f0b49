#include "cluster/mpckmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "cluster/kmeans.h"
#include "common/distance_kernels.h"
#include "common/strings.h"
#include "constraints/transitive_closure.h"

namespace cvcp {

namespace {

constexpr double kMinWeight = 1e-9;
constexpr double kMaxWeight = 1e9;

/// A constraint seen from one endpoint: the other object and the
/// constraint's index, which is its row in the pair memo.
struct Partner {
  size_t other;
  size_t constraint;
};

/// Constraint adjacency in flat (CSR) arrays. Object i's must-link
/// partners are must[must_begin[i] .. must_begin[i + 1]), in constraint
/// order; cannot-links likewise. `end_a`/`end_b` are each constraint's
/// endpoints.
struct Adjacency {
  std::vector<size_t> must_begin;
  std::vector<Partner> must;
  std::vector<size_t> cannot_begin;
  std::vector<Partner> cannot;
  std::vector<size_t> end_a;
  std::vector<size_t> end_b;
};

Adjacency BuildAdjacency(const ConstraintSet& constraints, size_t n) {
  const std::span<const Constraint> all = constraints.all();
  Adjacency adj;
  adj.must_begin.assign(n + 1, 0);
  adj.cannot_begin.assign(n + 1, 0);
  adj.end_a.reserve(all.size());
  adj.end_b.reserve(all.size());
  for (const Constraint& c : all) {
    std::vector<size_t>& begin = c.type == ConstraintType::kMustLink
                                     ? adj.must_begin
                                     : adj.cannot_begin;
    ++begin[c.a + 1];
    ++begin[c.b + 1];
    adj.end_a.push_back(c.a);
    adj.end_b.push_back(c.b);
  }
  for (size_t i = 0; i < n; ++i) {
    adj.must_begin[i + 1] += adj.must_begin[i];
    adj.cannot_begin[i + 1] += adj.cannot_begin[i];
  }
  adj.must.resize(adj.must_begin[n]);
  adj.cannot.resize(adj.cannot_begin[n]);
  std::vector<size_t> must_next(adj.must_begin.begin(),
                                adj.must_begin.end() - 1);
  std::vector<size_t> cannot_next(adj.cannot_begin.begin(),
                                  adj.cannot_begin.end() - 1);
  for (size_t ci = 0; ci < all.size(); ++ci) {
    const Constraint& c = all[ci];
    const bool must = c.type == ConstraintType::kMustLink;
    std::vector<Partner>& list = must ? adj.must : adj.cannot;
    std::vector<size_t>& next = must ? must_next : cannot_next;
    list[next[c.a]++] = {c.b, ci};
    list[next[c.b]++] = {c.a, ci};
  }
  return adj;
}

/// Per-dimension squared data range: the separable stand-in for the
/// "maximally separated pair" in the cannot-link penalty.
std::vector<double> SquaredRanges(std::span<const double* const> rows,
                                  size_t d, const RowKernels& row_ops) {
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  row_ops.min_max_rows(lo.data(), hi.data(), rows.data(), rows.size(), d);
  std::vector<double> out(d);
  for (size_t m = 0; m < d; ++m) {
    const double r = hi[m] - lo[m];
    out[m] = r * r;
  }
  return out;
}

/// One MPCKMeans run. Centroids and metric weights change only in the
/// M-step, so a *window* — from one M-step to the next — sees fixed ones:
/// Objective() after an M-step and the next AssignStep read the same
/// values. Every distance is computed once per window and memoized:
///
///   * object_dist_ (n x k): object-to-centroid distances, valid while
///     object_window_ == window_. Objective() fills the entries
///     (i, assignment[i]); the next AssignStep computes only the rest.
///   * pair_dist_ (|C| x k): each constraint pair under every cluster's
///     metric, valid for one weights generation (weights_gen_). A
///     must-link's row is computed whole (an assignment pass needs every
///     entry); a cannot-link's entries one at a time. Both endpoints,
///     AssignStep and Objective() share a row: the kernel is symmetric
///     (a - b and b - a differ only in sign, which d * d drops).
///
/// Stamps are compared against generation counters that start at 1, so
/// zero-initialized stamps are stale. Every value is the same kernel on
/// the same inputs as an uncached call, so results keep their bits.
class MpckState {
 public:
  MpckState(const Matrix& points, const ConstraintSet& constraints,
            const MpckMeansConfig& config, const DistanceKernels& kernels)
      : points_(points),
        config_(config),
        kernels_(kernels),
        row_ops_(GetRowKernels()),
        n_(points.rows()),
        d_(points.cols()),
        k_(static_cast<size_t>(config.k)),
        adj_(BuildAdjacency(constraints, n_)),
        centroids_(k_, d_),
        weights_(k_, d_, 1.0),
        log_det_(k_, 0.0),
        assignment_(n_, 0),
        object_dist_(n_ * k_),
        pair_dist_(adj_.end_a.size() * k_),
        must_row_stamp_(adj_.end_a.size(), 0),
        cannot_stamp_(adj_.end_a.size() * k_, 0),
        all_rows_(n_),
        all_ids_(n_),
        member_begin_(k_ + 1),
        member_rows_(n_),
        member_ids_(n_),
        gather_rows_(n_),
        gather_ids_(n_),
        denom_(k_, d_),
        denom_rows_(k_),
        pooled_(d_),
        counts_(k_),
        cost_(k_) {
    for (size_t i = 0; i < n_; ++i) {
      all_rows_[i] = points_.Row(i).data();
      all_ids_[i] = i;
    }
    for (size_t h = 0; h < k_; ++h) denom_rows_[h] = denom_.Row(h).data();
    sq_range_ = SquaredRanges(all_rows_, d_, row_ops_);
    RecomputeMaxSeparations();
  }

  void SetCentroids(Matrix init) {
    centroids_ = std::move(init);
    ++window_;
  }

  /// Greedy ICM assignment pass in the given order. Returns #changes.
  /// Each object's k costs come from one sweep of its partners, and each
  /// cost receives its terms in the order of the per-cluster evaluation:
  /// base, then must partners, then cannot partners.
  size_t AssignStep(const std::vector<size_t>& order) {
    // An object's own entry (i, assignment[i]) survives from Objective():
    // the pass changes assignment[i] only when it visits i.
    const bool have_own = object_window_ == window_;
    for (size_t h = 0; h < k_; ++h) {
      if (!have_own) {
        FillColumn(h, all_rows_.data(), all_ids_.data(), n_);
        continue;
      }
      size_t count = 0;
      for (size_t i = 0; i < n_; ++i) {
        if (static_cast<size_t>(assignment_[i]) == h) continue;
        gather_rows_[count] = all_rows_[i];
        gather_ids_[count++] = i;
      }
      FillColumn(h, gather_rows_.data(), gather_ids_.data(), count);
    }
    const double must_scale = config_.must_link_weight * 0.5;
    double* cost = cost_.data();
    size_t changes = 0;
    for (size_t i : order) {
      const double* od = &object_dist_[i * k_];
      for (size_t h = 0; h < k_; ++h) cost[h] = od[h] - log_det_[h];
      for (size_t e = adj_.must_begin[i]; e < adj_.must_begin[i + 1]; ++e) {
        const Partner& p = adj_.must[e];
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        // Violated for every h != lj: average of both metrics' penalty.
        const double* f = MustRow(p.constraint);
        for (size_t h = 0; h < k_; ++h) {
          if (h != lj) cost[h] += must_scale * (f[h] + f[lj]);
        }
      }
      for (size_t e = adj_.cannot_begin[i]; e < adj_.cannot_begin[i + 1];
           ++e) {
        const Partner& p = adj_.cannot[e];
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        // Violated only in the partner's cluster: the closer the pair,
        // the larger the penalty.
        cost[lj] += config_.cannot_link_weight *
                    std::max(0.0, max_sep_[lj] - CannotDist(p.constraint, lj));
      }
      double best = std::numeric_limits<double>::infinity();
      size_t best_h = 0;
      for (size_t h = 0; h < k_; ++h) {
        if (cost[h] < best) {
          best = cost[h];
          best_h = h;
        }
      }
      if (assignment_[i] != static_cast<int>(best_h)) {
        assignment_[i] = static_cast<int>(best_h);
        ++changes;
      }
    }
    return changes;
  }

  /// Recomputes centroids; empty clusters are re-seeded at a random point.
  /// Opens the M-step: groups the objects by their new cluster.
  void UpdateCentroids(Rng* rng) {
    GroupMembers();
    for (size_t h = 0; h < k_; ++h) {
      const size_t count = Members(h);
      if (count == 0) {
        centroids_.SetRow(h, points_.Row(rng->Index(n_)));
        continue;
      }
      double* centroid = centroids_.MutableRow(h).data();
      row_ops_.sum_rows(centroid, member_rows_.data() + member_begin_[h],
                        count, d_);
      row_ops_.divide(centroid, static_cast<double>(count), d_);
    }
    ++window_;
  }

  /// Re-estimates diagonal metric weights from scatter + violation terms.
  void UpdateMetrics() {
    if (config_.metric_mode == MetricMode::kNone) return;

    // Per-cluster, per-dimension denominators: each cluster's scatter,
    // summed over its members in object order.
    for (size_t h = 0; h < k_; ++h) {
      const size_t count = Members(h);
      row_ops_.sum_squared_diffs(denom_.MutableRow(h).data(),
                                 member_rows_.data() + member_begin_[h], count,
                                 centroids_.Row(h).data(), d_);
      counts_[h] = static_cast<double>(count);
    }
    // Violation contributions (each constraint visited once via i < other).
    const double must_scale = config_.must_link_weight * 0.5;
    for (size_t i = 0; i < n_; ++i) {
      const size_t li = static_cast<size_t>(assignment_[i]);
      for (size_t e = adj_.must_begin[i]; e < adj_.must_begin[i + 1]; ++e) {
        const Partner& p = adj_.must[e];
        if (i > p.other) continue;
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        if (li == lj) continue;
        row_ops_.add_must_link_scatter(denom_.MutableRow(li).data(),
                                       denom_.MutableRow(lj).data(), Point(i),
                                       Point(p.other), must_scale, d_);
      }
      for (size_t e = adj_.cannot_begin[i]; e < adj_.cannot_begin[i + 1];
           ++e) {
        const Partner& p = adj_.cannot[e];
        if (i > p.other) continue;
        if (static_cast<size_t>(assignment_[p.other]) != li) continue;
        row_ops_.add_cannot_link_scatter(denom_.MutableRow(li).data(),
                                         Point(i), Point(p.other),
                                         sq_range_.data(),
                                         config_.cannot_link_weight, d_);
      }
    }

    if (config_.metric_mode == MetricMode::kSingleDiagonal) {
      // Pool all clusters into one metric; every row gets the same
      // weights, so one row's log-determinant and separation serve all.
      row_ops_.sum_rows(pooled_.data(), denom_rows_.data(), k_, d_);
      double total = 0.0;
      for (size_t h = 0; h < k_; ++h) total += counts_[h];
      row_ops_.clamped_ratio(weights_.MutableRow(0).data(), total,
                             pooled_.data(), kMinWeight, kMaxWeight, d_);
      for (size_t h = 1; h < k_; ++h) weights_.SetRow(h, weights_.Row(0));
    } else {
      for (size_t h = 0; h < k_; ++h) {
        row_ops_.clamped_ratio(weights_.MutableRow(h).data(), counts_[h],
                               denom_.Row(h).data(), kMinWeight, kMaxWeight,
                               d_);
      }
    }
    const size_t distinct_rows =
        config_.metric_mode == MetricMode::kSingleDiagonal ? 1 : k_;
    for (size_t h = 0; h < distinct_rows; ++h) {
      double ld = 0.0;
      auto w = weights_.Row(h);
      for (size_t m = 0; m < d_; ++m) ld += std::log(w[m]);
      log_det_[h] = ld;
    }
    for (size_t h = distinct_rows; h < k_; ++h) log_det_[h] = log_det_[0];
    RecomputeMaxSeparations();
    ++weights_gen_;
    ++window_;
  }

  /// Full objective at the current state. Runs after an M-step, so the
  /// member groups are current.
  double Objective() {
    for (size_t h = 0; h < k_; ++h) {
      const size_t begin = member_begin_[h];
      FillColumn(h, member_rows_.data() + begin, member_ids_.data() + begin,
                 Members(h));
    }
    object_window_ = window_;
    double obj = 0.0;
    for (size_t i = 0; i < n_; ++i) {
      const size_t h = static_cast<size_t>(assignment_[i]);
      obj += object_dist_[i * k_ + h] - log_det_[h];
    }
    const double must_scale = config_.must_link_weight * 0.5;
    for (size_t i = 0; i < n_; ++i) {
      const size_t li = static_cast<size_t>(assignment_[i]);
      for (size_t e = adj_.must_begin[i]; e < adj_.must_begin[i + 1]; ++e) {
        const Partner& p = adj_.must[e];
        if (i > p.other) continue;
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        if (li == lj) continue;
        const double* f = MustRow(p.constraint);
        obj += must_scale * (f[li] + f[lj]);
      }
      for (size_t e = adj_.cannot_begin[i]; e < adj_.cannot_begin[i + 1];
           ++e) {
        const Partner& p = adj_.cannot[e];
        if (i > p.other) continue;
        if (static_cast<size_t>(assignment_[p.other]) != li) continue;
        obj += config_.cannot_link_weight *
               std::max(0.0, max_sep_[li] - CannotDist(p.constraint, li));
      }
    }
    return obj;
  }

  const std::vector<int>& assignment() const { return assignment_; }
  const Matrix& centroids() const { return centroids_; }
  const Matrix& weights() const { return weights_; }
  size_t n() const { return n_; }

 private:
  const double* Point(size_t i) const { return all_rows_[i]; }

  size_t Members(size_t h) const {
    return member_begin_[h + 1] - member_begin_[h];
  }

  /// Groups the objects by cluster in object order (CSR over clusters).
  void GroupMembers() {
    std::fill(member_begin_.begin(), member_begin_.end(), 0);
    for (int a : assignment_) ++member_begin_[static_cast<size_t>(a) + 1];
    for (size_t h = 0; h < k_; ++h) member_begin_[h + 1] += member_begin_[h];
    for (size_t i = 0; i < n_; ++i) {
      const size_t h = static_cast<size_t>(assignment_[i]);
      const size_t slot = member_begin_[h]++;
      member_rows_[slot] = all_rows_[i];
      member_ids_[slot] = i;
    }
    // The fill advanced each begin to the next cluster's begin.
    for (size_t h = k_; h > 0; --h) member_begin_[h] = member_begin_[h - 1];
    member_begin_[0] = 0;
  }

  /// object_dist_(ids[j], h) for j < count: the objects `rows` against
  /// centroid h under metric h, four rows per kernel call.
  void FillColumn(size_t h, const double* const* rows, const size_t* ids,
                  size_t count) {
    const double* c = centroids_.Row(h).data();
    const double* w = weights_.Row(h).data();
    size_t j = 0;
    for (; j + 4 <= count; j += 4) {
      double out[4];
      kernels_.weighted_squared_euclidean_x4(rows + j, c, w, d_, out);
      for (size_t q = 0; q < 4; ++q) {
        object_dist_[ids[j + q] * k_ + h] = out[q];
      }
    }
    for (; j < count; ++j) {
      object_dist_[ids[j] * k_ + h] =
          kernels_.weighted_squared_euclidean(rows[j], c, w, d_);
    }
  }

  /// Must-link `c` under every cluster's metric (row of k).
  const double* MustRow(size_t c) {
    double* row = &pair_dist_[c * k_];
    if (must_row_stamp_[c] == weights_gen_) return row;
    const double* a = Point(adj_.end_a[c]);
    const double* b = Point(adj_.end_b[c]);
    kernels_.weighted_squared_euclidean_rows(a, b, weights_.Row(0).data(), d_,
                                             k_, d_, row);
    must_row_stamp_[c] = weights_gen_;
    return row;
  }

  /// Cannot-link `c` under cluster h's metric.
  double CannotDist(size_t c, size_t h) {
    const size_t slot = c * k_ + h;
    if (cannot_stamp_[slot] != weights_gen_) {
      pair_dist_[slot] = kernels_.weighted_squared_euclidean(
          Point(adj_.end_a[c]), Point(adj_.end_b[c]), weights_.Row(h).data(),
          d_);
      cannot_stamp_[slot] = weights_gen_;
    }
    return pair_dist_[slot];
  }

  /// Refreshes the per-cluster cannot-link penalty scale: the
  /// metric-weighted squared range, summed in dimension order. It only
  /// changes with the weights, so the assignment and objective loops read
  /// it in O(1).
  void RecomputeMaxSeparations() {
    max_sep_.assign(k_, 0.0);
    for (size_t h = 0; h < k_; ++h) {
      double s = 0.0;
      auto w = weights_.Row(h);
      for (size_t m = 0; m < d_; ++m) s += w[m] * sq_range_[m];
      max_sep_[h] = s;
    }
  }

  const Matrix& points_;
  const MpckMeansConfig& config_;
  const DistanceKernels& kernels_;
  const RowKernels& row_ops_;
  size_t n_, d_, k_;
  Adjacency adj_;
  Matrix centroids_;
  Matrix weights_;
  std::vector<double> log_det_;
  std::vector<double> max_sep_;  ///< MaxSeparation per cluster
  std::vector<int> assignment_;

  // Window memo (see the class comment).
  uint32_t window_ = 1;
  uint32_t object_window_ = 0;
  uint32_t weights_gen_ = 1;
  std::vector<double> object_dist_;
  std::vector<double> pair_dist_;
  std::vector<uint32_t> must_row_stamp_;
  std::vector<uint32_t> cannot_stamp_;

  std::vector<double> sq_range_;

  std::vector<const double*> all_rows_;  ///< row i of the points
  std::vector<size_t> all_ids_;          ///< 0..n-1

  // Objects grouped by cluster, rebuilt at each M-step.
  std::vector<size_t> member_begin_;  ///< k + 1 offsets
  std::vector<const double*> member_rows_;
  std::vector<size_t> member_ids_;

  // Scratch reused by every iteration.
  std::vector<const double*> gather_rows_;  ///< one column's objects
  std::vector<size_t> gather_ids_;
  Matrix denom_;                          ///< k x d metric denominators
  std::vector<const double*> denom_rows_;  ///< row h of denom_
  std::vector<double> pooled_;            ///< d, kSingleDiagonal pooling
  std::vector<double> counts_;            ///< k, members per cluster
  std::vector<double> cost_;              ///< k, one object's costs
};

/// min_d2[i] = std::min(min_d2[i], SquaredEuclidean(x_i, c)) for every
/// object, four contiguous rows per kernel call.
void LowerMinDistances(const Matrix& points, const double* c,
                       const DistanceKernels& kernels,
                       std::vector<double>* min_d2) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  const double* x = points.data().data();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double out[4];
    kernels.squared_euclidean_x4(c, x + i * d, d, d, out);
    for (size_t j = 0; j < 4; ++j) {
      (*min_d2)[i + j] = std::min((*min_d2)[i + j], out[j]);
    }
  }
  for (; i < n; ++i) {
    (*min_d2)[i] =
        std::min((*min_d2)[i], kernels.squared_euclidean(x + i * d, c, d));
  }
}

/// Neighborhood-based initialization: centroids of the lambda largest
/// must-link neighborhoods, topped up by D^2-weighted sampling.
Result<Matrix> NeighborhoodInit(const Matrix& points,
                                const DistanceKernels& kernels,
                                const ConstraintSet& constraints, int k,
                                Rng* rng) {
  CVCP_ASSIGN_OR_RETURN(ConstraintComponents comps,
                        BuildConstraintComponents(constraints));
  // Only multi-object components are informative neighborhoods.
  std::vector<const std::vector<size_t>*> hoods;
  for (const auto& members : comps.components) {
    if (members.size() >= 2) hoods.push_back(&members);
  }
  std::sort(hoods.begin(), hoods.end(),
            [](const auto* a, const auto* b) { return a->size() > b->size(); });

  const size_t uk = static_cast<size_t>(k);
  Matrix centroids(uk, points.cols());
  size_t filled = std::min(uk, hoods.size());
  for (size_t h = 0; h < filled; ++h) {
    std::vector<double> mean = points.ColumnMeans(*hoods[h]);
    centroids.SetRow(h, mean);
  }
  if (filled < uk) {
    // Top up with D^2 sampling relative to the centroids chosen so far.
    // Each object takes its minimum over the centroids in centroid order.
    const size_t n = points.rows();
    std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
    if (filled == 0) {
      centroids.SetRow(0, points.Row(rng->Index(n)));
      filled = 1;
    }
    for (size_t h = 0; h < filled; ++h) {
      LowerMinDistances(points, centroids.Row(h).data(), kernels, &min_d2);
    }
    while (filled < uk) {
      double total = 0.0;
      for (double v : min_d2) total += v;
      size_t chosen;
      if (total <= 0.0) {
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
      centroids.SetRow(filled, points.Row(chosen));
      LowerMinDistances(points, points.Row(chosen).data(), kernels, &min_d2);
      ++filled;
    }
  }
  return centroids;
}

}  // namespace

Result<MpckMeansResult> RunMpckMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const MpckMeansConfig& config, Rng* rng) {
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
  for (const Constraint& c : constraints.all()) {
    if (c.a >= points.rows() || c.b >= points.rows()) {
      return Status::InvalidArgument(
          Format("constraint %s references object beyond dataset size %zu",
                 ConstraintToString(c).c_str(), points.rows()));
    }
  }

  // One kernel-table lookup per run, shared by the init and every
  // iteration.
  const DistanceKernels& kernels = GetDistanceKernels();
  MpckState state(points, constraints, config, kernels);
  if (config.neighborhood_init) {
    CVCP_ASSIGN_OR_RETURN(Matrix init,
                          NeighborhoodInit(points, kernels, constraints,
                                           config.k, rng));
    state.SetCentroids(std::move(init));
  } else {
    state.SetCentroids(KMeansPlusPlusInit(points, config.k, rng));
  }

  double prev_obj = std::numeric_limits<double>::infinity();
  double obj = prev_obj;
  int iter = 0;
  bool converged = false;
  for (iter = 0; iter < config.max_iters; ++iter) {
    std::vector<size_t> order = rng->Permutation(state.n());
    const size_t changes = state.AssignStep(order);
    state.UpdateCentroids(rng);
    state.UpdateMetrics();
    obj = state.Objective();
    const bool obj_converged =
        std::isfinite(prev_obj) &&
        std::fabs(prev_obj - obj) <=
            config.tol * std::max(std::fabs(prev_obj), 1.0);
    if (changes == 0 || obj_converged) {
      converged = true;
      ++iter;
      break;
    }
    prev_obj = obj;
  }

  MpckMeansResult result;
  result.clustering = Clustering(state.assignment());
  result.centroids = state.centroids();
  result.metric_weights = state.weights();
  result.objective = obj;
  result.iterations = iter;
  result.converged = converged;
  return result;
}

}  // namespace cvcp
