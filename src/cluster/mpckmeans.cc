#include "cluster/mpckmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "cluster/kmeans.h"
#include "common/distance_kernels.h"
#include "common/strings.h"
#include "constraints/transitive_closure.h"

namespace cvcp {

struct MpckSetup {
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

  const Matrix* points = nullptr;
  /// The constraint-index check. When it failed nothing below is built.
  Status index_status;
  std::vector<const double*> rows;  ///< row i of the points
  Adjacency adj;
  std::vector<double> sq_range;  ///< d, SquaredRanges
  /// Each constraint pair's unit-weight squared distance, in constraint
  /// order.
  std::vector<double> pair_unit;
  /// The must-link closure's status (kInconsistentConstraints when the
  /// set contradicts itself). When it failed no neighborhood is built.
  Status closure_status;
  /// The must-link neighborhoods' means, largest neighborhood first
  /// (neighborhoods x d), and each mean's SquaredDistanceColumn: row h
  /// holds every object's unit-weight squared distance to mean h
  /// (neighborhoods x n).
  Matrix hood_means;
  Matrix hood_columns;
};

namespace {

constexpr double kMinWeight = 1e-9;
constexpr double kMaxWeight = 1e9;

using Partner = MpckSetup::Partner;
using Adjacency = MpckSetup::Adjacency;

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

/// One MPCKMeans run. Each cluster h has a version, version_[h], that
/// advances whenever its centroid or weight row is rewritten, and every
/// memoized distance is stamped with the version it was computed under:
///
///   * object_dist_ (n x k): object-to-centroid distances. Entry (i, h) is
///     valid while object_stamp_[h * n + i] == version_[h]. Objective()
///     computes the stale entries among each cluster's members; the next
///     AssignStep computes the other stale ones.
///   * pair_dist_ (|C| x k): each constraint pair under every cluster's
///     metric. A cannot-link's entry (c, h) is stamped with h's weight
///     version. A must-link's row is computed whole (an assignment pass
///     needs every entry) and stamped with the weights epoch, which
///     advances when any weight row is rewritten. Both endpoints,
///     AssignStep and Objective() share a row: the kernel is symmetric
///     (a - b and b - a differ only in sign, which d * d drops).
///
/// The M-step re-estimates only the clusters whose member set changed:
/// AssignStep marks the old and the new cluster of every object that
/// moves, and a re-seeded empty cluster counts as changed. Skipping the
/// others is exact. A cluster that no object entered or left keeps its
/// member list in object order, and its centroid is sum_rows then divide
/// over that list. Under kPerClusterDiagonal its denominators, weights,
/// log-det and max-separation are functions of that list too: the scatter
/// over its members, the must-links with exactly one endpoint inside and
/// the cannot-links with both inside, visited in the same order. Under
/// kSingleDiagonal the weights are pooled, so any change re-estimates
/// every weight row; under kNone they never change.
///
/// Versions start at 1 and stamps at 0, so fresh stamps are stale, except
/// for the entries iteration 0 starts from (Seed and the constructor):
/// the seeding's columns and every pair's unit-weight distance. Every
/// value is the same kernel on the same inputs as an uncached call, so
/// results keep their bits.
class MpckState {
 public:
  MpckState(const MpckSetup& setup, const MpckMeansConfig& config,
            const DistanceKernels& kernels)
      : setup_(setup),
        points_(*setup.points),
        config_(config),
        kernels_(kernels),
        row_ops_(GetRowKernels()),
        n_(points_.rows()),
        d_(points_.cols()),
        k_(static_cast<size_t>(config.k)),
        adj_(setup.adj),
        sq_range_(setup.sq_range),
        all_rows_(setup.rows),
        centroids_(k_, d_),
        weights_(k_, d_, 1.0),
        log_det_(k_, 0.0),
        max_sep_(k_),
        assignment_(n_, 0),
        changed_(k_, 1),
        version_(k_, 1),
        weight_version_(k_, 1),
        object_dist_(n_ * k_),
        object_stamp_(k_ * n_, 0),
        pair_dist_(adj_.end_a.size() * k_),
        must_row_stamp_(adj_.end_a.size(), 1),
        cannot_stamp_(adj_.end_a.size() * k_, 1),
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
    for (size_t h = 0; h < k_; ++h) denom_rows_[h] = denom_.Row(h).data();
    for (size_t h = 0; h < k_; ++h) max_sep_[h] = MaxSeparation(h);
    // Weights are exactly 1.0 until the first M-step rewrites them, and
    // the weighted kernel's term is w * (d * d), which at w = 1.0 is the
    // unweighted d * d in the same lanes and reduction tree. So each
    // pair's unit-weight distance is its entry under every cluster's
    // metric, fresh at weight version 1 and weights epoch 1 (the stamps
    // above).
    for (size_t c = 0; c < setup_.pair_unit.size(); ++c) {
      std::fill_n(&pair_dist_[c * k_], k_, setup_.pair_unit[c]);
    }
  }

  /// Seeds the centroids: the means of the `placed` largest must-link
  /// neighborhoods, topped up by k-means++ D^2 sampling. Every cluster
  /// starts marked changed, so the first M-step re-estimates them all.
  /// Iteration 0 starts from the distances the seeding holds: each
  /// neighborhood's column from the setup and each column the sampling
  /// measured become fresh object_dist_ entries. At unit weights they
  /// have the bits FillColumn would compute (see the constructor), and
  /// (c - x)^2 equals (x - c)^2.
  void Seed(size_t placed, Rng* rng) {
    for (size_t h = 0; h < placed; ++h) {
      centroids_.SetRow(h, setup_.hood_means.Row(h));
      const std::span<const double> column = setup_.hood_columns.Row(h);
      for (size_t i = 0; i < n_; ++i) object_dist_[i * k_ + h] = column[i];
    }
    const size_t measured = KMeansPlusPlusFill(points_, placed, &centroids_,
                                               rng, object_dist_.data());
    for (size_t h = 0; h < measured; ++h) {
      std::fill_n(&object_stamp_[h * n_], n_, version_[h]);
    }
  }

  /// Greedy ICM assignment pass in the given order. Returns #changes.
  /// Each object's k costs come from one sweep of its partners, and each
  /// cost receives its terms in the order of the per-cluster evaluation:
  /// base, then must partners, then cannot partners.
  size_t AssignStep(const std::vector<size_t>& order) {
    // Objective() left each object's own entry fresh; the pass changes
    // assignment[i] only when it visits i.
    for (size_t h = 0; h < k_; ++h) {
      const uint32_t* stamp = &object_stamp_[h * n_];
      size_t count = 0;
      for (size_t i = 0; i < n_; ++i) {
        if (stamp[i] == version_[h]) continue;
        gather_rows_[count] = all_rows_[i];
        gather_ids_[count++] = i;
      }
      FillColumn(h, count);
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
      const size_t old_h = static_cast<size_t>(assignment_[i]);
      if (old_h != best_h) {
        assignment_[i] = static_cast<int>(best_h);
        changed_[old_h] = 1;
        changed_[best_h] = 1;
        ++changes;
      }
    }
    return changes;
  }

  /// Groups the objects by their new cluster, re-estimates the changed
  /// clusters and advances the version of every cluster whose centroid or
  /// weight row was rewritten.
  void MStep(Rng* rng) {
    GroupMembers();
    UpdateCentroids(rng);
    UpdateMetrics();
    for (size_t h = 0; h < k_; ++h) {
      if (changed_[h]) ++version_[h];
    }
    std::fill(changed_.begin(), changed_.end(), 0);
  }

  /// Full objective at the current state. Runs after an M-step, so the
  /// member groups are current.
  double Objective() {
    for (size_t h = 0; h < k_; ++h) {
      const uint32_t* stamp = &object_stamp_[h * n_];
      size_t count = 0;
      for (size_t s = member_begin_[h]; s < member_begin_[h + 1]; ++s) {
        const size_t i = member_ids_[s];
        if (stamp[i] == version_[h]) continue;
        gather_rows_[count] = member_rows_[s];
        gather_ids_[count++] = i;
      }
      FillColumn(h, count);
    }
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

  /// Recomputes the centroids of the changed clusters. Every empty
  /// cluster is re-seeded at a random point, in cluster order, and counts
  /// as changed.
  void UpdateCentroids(Rng* rng) {
    for (size_t h = 0; h < k_; ++h) {
      const size_t count = Members(h);
      if (count == 0) {
        centroids_.SetRow(h, points_.Row(rng->Index(n_)));
        changed_[h] = 1;
        continue;
      }
      if (!changed_[h]) continue;
      double* centroid = centroids_.MutableRow(h).data();
      row_ops_.sum_rows(centroid, member_rows_.data() + member_begin_[h],
                        count, d_);
      row_ops_.divide(centroid, static_cast<double>(count), d_);
    }
  }

  /// Re-estimates the diagonal metric weights of the changed clusters
  /// from scatter + violation terms.
  void UpdateMetrics() {
    if (config_.metric_mode == MetricMode::kNone) return;
    if (std::find(changed_.begin(), changed_.end(), 1) == changed_.end()) {
      return;
    }
    const bool pooled = config_.metric_mode == MetricMode::kSingleDiagonal;
    // Pooled weights depend on every cluster's denominators.
    if (pooled) std::fill(changed_.begin(), changed_.end(), 1);

    // Per-cluster, per-dimension denominators: each cluster's scatter,
    // summed over its members in object order. sum_squared_diffs
    // overwrites the row, so a row left over from an earlier M-step is
    // never read.
    for (size_t h = 0; h < k_; ++h) {
      if (!changed_[h]) continue;
      const size_t count = Members(h);
      row_ops_.sum_squared_diffs(denom_.MutableRow(h).data(),
                                 member_rows_.data() + member_begin_[h], count,
                                 centroids_.Row(h).data(), d_);
      counts_[h] = static_cast<double>(count);
    }
    // Violation contributions (each constraint visited once via i < other).
    // A must-link between a changed and an unchanged cluster also adds to
    // the unchanged cluster's row, which is not read before it is rebuilt.
    const double must_scale = config_.must_link_weight * 0.5;
    for (size_t i = 0; i < n_; ++i) {
      const size_t li = static_cast<size_t>(assignment_[i]);
      for (size_t e = adj_.must_begin[i]; e < adj_.must_begin[i + 1]; ++e) {
        const Partner& p = adj_.must[e];
        if (i > p.other) continue;
        const size_t lj = static_cast<size_t>(assignment_[p.other]);
        if (li == lj || (!changed_[li] && !changed_[lj])) continue;
        row_ops_.add_must_link_scatter(denom_.MutableRow(li).data(),
                                       denom_.MutableRow(lj).data(), Point(i),
                                       Point(p.other), must_scale, d_);
      }
      if (!changed_[li]) continue;
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

    if (pooled) {
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
        if (!changed_[h]) continue;
        row_ops_.clamped_ratio(weights_.MutableRow(h).data(), counts_[h],
                               denom_.Row(h).data(), kMinWeight, kMaxWeight,
                               d_);
      }
    }
    for (size_t h = 0; h < k_; ++h) {
      if (!changed_[h]) continue;
      ++weight_version_[h];
      if (pooled && h > 0) {
        log_det_[h] = log_det_[0];
        max_sep_[h] = max_sep_[0];
        continue;
      }
      double ld = 0.0;
      auto w = weights_.Row(h);
      for (size_t m = 0; m < d_; ++m) ld += std::log(w[m]);
      log_det_[h] = ld;
      max_sep_[h] = MaxSeparation(h);
    }
    ++weights_epoch_;
  }

  /// object_dist_(gather_ids_[j], h) for j < count: the gathered objects
  /// against centroid h under metric h, four rows per kernel call. Stamps
  /// each entry with h's version.
  void FillColumn(size_t h, size_t count) {
    const double* const* rows = gather_rows_.data();
    const size_t* ids = gather_ids_.data();
    const double* c = centroids_.Row(h).data();
    const double* w = weights_.Row(h).data();
    uint32_t* stamp = &object_stamp_[h * n_];
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
    for (j = 0; j < count; ++j) stamp[ids[j]] = version_[h];
  }

  /// Must-link `c` under every cluster's metric (row of k).
  const double* MustRow(size_t c) {
    double* row = &pair_dist_[c * k_];
    if (must_row_stamp_[c] == weights_epoch_) return row;
    const double* a = Point(adj_.end_a[c]);
    const double* b = Point(adj_.end_b[c]);
    kernels_.weighted_squared_euclidean_rows(a, b, weights_.Row(0).data(), d_,
                                             k_, d_, row);
    must_row_stamp_[c] = weights_epoch_;
    return row;
  }

  /// Cannot-link `c` under cluster h's metric.
  double CannotDist(size_t c, size_t h) {
    const size_t slot = c * k_ + h;
    if (cannot_stamp_[slot] != weight_version_[h]) {
      pair_dist_[slot] = kernels_.weighted_squared_euclidean(
          Point(adj_.end_a[c]), Point(adj_.end_b[c]), weights_.Row(h).data(),
          d_);
      cannot_stamp_[slot] = weight_version_[h];
    }
    return pair_dist_[slot];
  }

  /// Cluster h's cannot-link penalty scale: the metric-weighted squared
  /// range, summed in dimension order. It only changes with the weights,
  /// so max_sep_ caches it for the assignment and objective loops.
  double MaxSeparation(size_t h) const {
    double s = 0.0;
    auto w = weights_.Row(h);
    for (size_t m = 0; m < d_; ++m) s += w[m] * sq_range_[m];
    return s;
  }

  const MpckSetup& setup_;
  const Matrix& points_;
  const MpckMeansConfig& config_;
  const DistanceKernels& kernels_;
  const RowKernels& row_ops_;
  size_t n_, d_, k_;
  const Adjacency& adj_;
  const std::vector<double>& sq_range_;
  const std::vector<const double*>& all_rows_;  ///< row i of the points
  Matrix centroids_;
  Matrix weights_;
  std::vector<double> log_det_;
  std::vector<double> max_sep_;  ///< MaxSeparation per cluster
  std::vector<int> assignment_;
  /// k, set when a cluster's member set changed since the last M-step,
  /// and during the M-step when its centroid or weight row is rewritten.
  std::vector<uint8_t> changed_;

  // Versioned memo (see the class comment).
  std::vector<uint32_t> version_;         ///< k, centroid or weights
  std::vector<uint32_t> weight_version_;  ///< k, weights only
  uint32_t weights_epoch_ = 1;            ///< any weight row
  std::vector<double> object_dist_;
  std::vector<uint32_t> object_stamp_;  ///< k x n, cluster-major
  std::vector<double> pair_dist_;
  std::vector<uint32_t> must_row_stamp_;
  std::vector<uint32_t> cannot_stamp_;

  // Objects grouped by cluster, rebuilt at each M-step.
  std::vector<size_t> member_begin_;  ///< k + 1 offsets
  std::vector<const double*> member_rows_;
  std::vector<size_t> member_ids_;

  // Scratch reused by every iteration.
  std::vector<const double*> gather_rows_;  ///< one column's stale objects
  std::vector<size_t> gather_ids_;
  Matrix denom_;                           ///< k x d metric denominators
  std::vector<const double*> denom_rows_;  ///< row h of denom_
  std::vector<double> pooled_;             ///< d, kSingleDiagonal pooling
  std::vector<double> counts_;             ///< k, members per cluster
  std::vector<double> cost_;               ///< k, one object's costs
};

Status ValidateConfig(const MpckMeansConfig& config, size_t n) {
  if (config.k < 1) {
    return Status::InvalidArgument(Format("k must be >= 1, got %d", config.k));
  }
  if (static_cast<size_t>(config.k) > n) {
    return Status::InvalidArgument(
        Format("k=%d exceeds number of points (%zu)", config.k, n));
  }
  if (config.max_iters < 1) {
    return Status::InvalidArgument("max_iters must be >= 1");
  }
  return Status::OK();
}

}  // namespace

std::shared_ptr<const MpckSetup> PrepareMpckMeans(
    const Matrix& points, const ConstraintSet& constraints) {
  auto setup = std::make_shared<MpckSetup>();
  setup->points = &points;
  const size_t n = points.rows();
  const size_t d = points.cols();
  for (const Constraint& c : constraints.all()) {
    if (c.a >= n || c.b >= n) {
      setup->index_status = Status::InvalidArgument(
          Format("constraint %s references object beyond dataset size %zu",
                 ConstraintToString(c).c_str(), n));
      return setup;
    }
  }
  setup->rows.resize(n);
  for (size_t i = 0; i < n; ++i) setup->rows[i] = points.Row(i).data();
  setup->adj = BuildAdjacency(constraints, n);
  setup->sq_range = SquaredRanges(setup->rows, d, GetRowKernels());
  const DistanceKernels& kernels = GetDistanceKernels();
  const Adjacency& adj = setup->adj;
  setup->pair_unit.resize(adj.end_a.size());
  for (size_t c = 0; c < adj.end_a.size(); ++c) {
    setup->pair_unit[c] = kernels.squared_euclidean(
        setup->rows[adj.end_a[c]], setup->rows[adj.end_b[c]], d);
  }

  Result<ConstraintComponents> comps = BuildConstraintComponents(constraints);
  if (!comps.ok()) {
    setup->closure_status = comps.status();
    return setup;
  }
  // Only multi-object components are informative neighborhoods.
  std::vector<const std::vector<size_t>*> hoods;
  for (const auto& members : comps->components) {
    if (members.size() >= 2) hoods.push_back(&members);
  }
  std::sort(hoods.begin(), hoods.end(),
            [](const auto* a, const auto* b) { return a->size() > b->size(); });
  setup->hood_means = Matrix(hoods.size(), d);
  setup->hood_columns = Matrix(hoods.size(), n);
  for (size_t h = 0; h < hoods.size(); ++h) {
    setup->hood_means.SetRow(h, points.ColumnMeans(*hoods[h]));
    SquaredDistanceColumn(points, setup->hood_means.Row(h).data(),
                          setup->hood_columns.MutableRow(h).data());
  }
  return setup;
}

Result<MpckMeansResult> RunMpckMeans(const MpckSetup& setup,
                                     const MpckMeansConfig& config, Rng* rng) {
  CVCP_RETURN_IF_ERROR(ValidateConfig(config, setup.points->rows()));
  CVCP_RETURN_IF_ERROR(setup.index_status);
  // Initialization: centroids of the lambda largest must-link
  // neighborhoods, topped up by D^2-weighted sampling; k-means++ alone
  // without neighborhood init.
  size_t placed = 0;
  if (config.neighborhood_init) {
    CVCP_RETURN_IF_ERROR(setup.closure_status);
    placed = std::min(static_cast<size_t>(config.k), setup.hood_means.rows());
  }

  // One kernel-table lookup per run, shared by every iteration.
  MpckState state(setup, config, GetDistanceKernels());
  state.Seed(placed, rng);

  double prev_obj = std::numeric_limits<double>::infinity();
  double obj = prev_obj;
  int iter = 0;
  bool converged = false;
  for (iter = 0; iter < config.max_iters; ++iter) {
    std::vector<size_t> order = rng->Permutation(state.n());
    const size_t changes = state.AssignStep(order);
    state.MStep(rng);
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

Result<MpckMeansResult> RunMpckMeans(const Matrix& points,
                                     const ConstraintSet& constraints,
                                     const MpckMeansConfig& config, Rng* rng) {
  return RunMpckMeans(*PrepareMpckMeans(points, constraints), config, rng);
}

}  // namespace cvcp
