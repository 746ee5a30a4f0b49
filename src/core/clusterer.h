#ifndef CVCP_CORE_CLUSTERER_H_
#define CVCP_CORE_CLUSTERER_H_

/// \file
/// The pluggable algorithm interface CVCP selects models for, plus the
/// adapters for the algorithms shipped with the library. A clusterer maps
/// (dataset, supervision, one integer parameter) to a flat clustering of
/// the *whole* dataset; CVCP sweeps the parameter.
///
/// Every run receives a `ClusterContext` carrying an optional per-dataset
/// `DatasetCache` (core/dataset_cache.h): algorithms whose early stages
/// are supervision-independent (FOSC-OPTICSDend's distances, OPTICS
/// ordering, and dendrogram) reuse those stages across the grid×fold×trial
/// sweep through the cache instead of recomputing them per cell. Without
/// one, such an algorithm builds a cache private to the call; results are
/// byte-identical either way. The context may also carry a
/// `SupervisionMemo`, which holds what an algorithm derives from one
/// supervision alone (MPCKMeans' setup) for every grid value that
/// clusters with it.

#include <memory>
#include <span>
#include <string>

#include "cluster/clustering.h"
#include "cluster/copkmeans.h"
#include "cluster/fosc.h"
#include "cluster/kmeans.h"
#include "cluster/mpckmeans.h"
#include "common/dataset.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "constraints/constraint_set.h"
#include "core/supervision.h"

namespace cvcp {

class DatasetCache;       // core/dataset_cache.h
struct FoscOpticsModel;   // core/dataset_cache.h

/// What a clusterer derives from one (points, constraints) pair alone,
/// memoized for every grid value that clusters with that supervision:
/// today MPCKMeans' setup (cluster/mpckmeans.h), which a CVCP grid would
/// otherwise rebuild once per k. `ScoreGridOnFolds` keeps one memo per
/// fold beside the fold's training supervision, and `SweepGrid` one per
/// sweep; both die with the call. Unlike `DatasetCache`, which holds only
/// supervision-independent geometry, a memo serves exactly the pair it
/// was made for, by identity: a run must pass the same `points` and
/// `constraints` objects (checked).
///
/// Concurrency follows `DatasetCache`'s rule: a caller that finds the
/// slot empty builds outside the lock, the first publisher wins and
/// racing losers adopt its copy. Nothing waits on a build, so nested
/// help-while-waiting fan-outs cannot deadlock on it. The builds are
/// deterministic, so which copy wins is unobservable.
class SupervisionMemo {
 public:
  /// Borrows both; the memo must not outlive either.
  SupervisionMemo(const Matrix& points, const ConstraintSet& constraints)
      : points_(points), constraints_(constraints) {}
  SupervisionMemo(const SupervisionMemo&) = delete;
  SupervisionMemo& operator=(const SupervisionMemo&) = delete;

  /// True when this memo was made for exactly these objects.
  bool Serves(const Matrix& points, const ConstraintSet& constraints) const {
    return &points == &points_ && &constraints == &constraints_;
  }

  /// The MPCKMeans setup of the pair, prepared on first use.
  std::shared_ptr<const MpckSetup> Mpck() EXCLUDES(mu_);

 private:
  const Matrix& points_;
  const ConstraintSet& constraints_;
  Mutex mu_;
  std::shared_ptr<const MpckSetup> mpck_ GUARDED_BY(mu_);
};

/// Per-run context threaded through `SemiSupervisedClusterer::Cluster`.
/// Aggregate-initialized by position (`ClusterContext{cache, exec}`), so
/// new members go last and carry a default.
struct ClusterContext {
  /// Cache of supervision-independent per-dataset structures (distance
  /// matrix, OPTICS models). nullptr = a cache private to the call;
  /// results are byte-identical either way.
  DatasetCache* cache = nullptr;
  /// Thread budget for one-off shared builds behind the cache (e.g. the
  /// first distance-matrix build). Serial by default.
  ExecutionContext exec = ExecutionContext::Serial();
  /// Memo of what the clusterer derives from this run's (points,
  /// constraints) alone, shared by the grid values that cluster with the
  /// same supervision. nullptr = a memo private to the call; results are
  /// byte-identical either way. A non-null memo must serve the run's
  /// dataset points and supervision constraints (SupervisionMemo::Serves).
  SupervisionMemo* supervision = nullptr;
};

/// A semi-supervised clustering algorithm with one integer hyperparameter.
class SemiSupervisedClusterer {
 public:
  virtual ~SemiSupervisedClusterer() = default;

  /// Display name ("FOSC-OPTICSDend", "MPCKMeans", ...).
  virtual std::string name() const = 0;

  /// What the swept parameter means ("MinPts", "k", ...).
  virtual std::string param_name() const = 0;

  /// Clusters all of `data` using the supervision. `context` optionally
  /// supplies the per-dataset compute cache; the default context produces
  /// identical results.
  Result<Clustering> Cluster(const Dataset& data,
                             const Supervision& supervision, int param,
                             Rng* rng,
                             const ClusterContext& context = {}) const {
    return DoCluster(data, supervision, param, rng, context);
  }

  /// True for centroid-style algorithms whose output the Silhouette
  /// baseline is meaningful for (paper §4.3 uses Silhouette only for
  /// MPCKMeans).
  virtual bool IsCentroidBased() const { return false; }

  /// Pre-builds (or pre-loads, when a disk tier is configured) every
  /// supervision-independent artifact the grid sweep will need into
  /// `cache`, so the grid×fold×trial fan-out that follows only ever
  /// hits. `RunCvcp` calls it after building its folds; the bench
  /// harness also calls it once per dataset before a trial fan-out, so
  /// parallel trials never race to build the same key. Default: no-op —
  /// most algorithms have nothing cacheable.
  /// No-op on a null cache. Out-of-range params are skipped, not
  /// surfaced here; the sweep reports their errors per cell exactly as a
  /// cold cache would.
  virtual void PrewarmCache(const Dataset& data,
                            std::span<const int> param_grid,
                            DatasetCache* cache,
                            const ExecutionContext& exec) const;

 protected:
  /// Implementation hook for Cluster. Implementations may ignore
  /// `context`; ones that use the cache must return byte-identical results
  /// whether it is shared, private, cold or warm (the engine's determinism
  /// contract).
  virtual Result<Clustering> DoCluster(const Dataset& data,
                                       const Supervision& supervision,
                                       int param, Rng* rng,
                                       const ClusterContext& context) const = 0;
};

/// FOSC-OPTICSDend (param = MinPts): OPTICS ordering -> reachability
/// dendrogram -> FOSC extraction under the constraint objective. The
/// OPTICS + dendrogram stage is supervision-independent and comes from
/// `DatasetCache::FoscModel`, so one model serves every fold and trial of
/// a parameter value; `ExtractWithSupervision` is the only stage that sees
/// the constraints.
class FoscOpticsDendClusterer : public SemiSupervisedClusterer {
 public:
  std::string name() const override { return "FOSC-OPTICSDend"; }
  std::string param_name() const override { return "MinPts"; }

  /// The supervision-dependent stage: FOSC extraction of a flat clustering
  /// from the model's dendrogram under the constraint objective.
  Result<Clustering> ExtractWithSupervision(
      const FoscOpticsModel& model, const Supervision& supervision) const;

  /// Always Euclidean; kept for the repository benchmark (see Metric).
  Metric metric() const { return Metric::kEuclidean; }

  /// Warms the cache's distance matrix and every grid model — the whole
  /// supervision-independent phase — before the fan-out.
  void PrewarmCache(const Dataset& data, std::span<const int> param_grid,
                    DatasetCache* cache,
                    const ExecutionContext& exec) const override;

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;
};

/// MPCKMeans (param = k).
class MpckMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit MpckMeansClusterer(MpckMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "MPCKMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  MpckMeansConfig base_;
};

/// COP-KMeans (param = k); hard constraints, used by the extension bench.
/// Infeasible runs fall back to unconstrained k-means so model selection
/// always receives a clustering (recorded via `fallbacks` counters by the
/// caller if needed).
class CopKMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit CopKMeansClusterer(CopKMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "COP-KMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  CopKMeansConfig base_;
};

/// Plain k-means (param = k), ignoring supervision — the unsupervised
/// control.
class KMeansClusterer : public SemiSupervisedClusterer {
 public:
  explicit KMeansClusterer(KMeansConfig base = {}) : base_(base) {}

  std::string name() const override { return "KMeans"; }
  std::string param_name() const override { return "k"; }
  bool IsCentroidBased() const override { return true; }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override;

 private:
  KMeansConfig base_;
};

}  // namespace cvcp

#endif  // CVCP_CORE_CLUSTERER_H_
