#ifndef CVCP_CORE_SUPERVISION_H_
#define CVCP_CORE_SUPERVISION_H_

/// \file
/// The partial information a user provides to a semi-supervised clustering
/// run: either a subset of labeled objects (paper Scenario I) or a set of
/// pairwise constraints (Scenario II). Constraints are always available —
/// derived from the labels in the label case — so constraint-based
/// algorithms work in both scenarios; label-based algorithms additionally
/// get the sparse label array in Scenario I.

#include <vector>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/status.h"
#include "constraints/constraint_set.h"
#include "constraints/folds.h"

namespace cvcp {

/// Which kind of supervision the user provided.
enum class SupervisionKind {
  kLabels,       ///< Scenario I
  kConstraints,  ///< Scenario II
};

/// Value type holding one trial's supervision.
class Supervision {
 public:
  /// Scenario I from a labeled dataset and the chosen object subset (any
  /// order; a repeated id counts once).
  static Supervision FromLabels(const Dataset& data,
                                std::vector<size_t> labeled_objects);

  /// Scenario I from a sparse label array (-1 = unlabeled).
  static Supervision FromLabelArray(std::vector<int> sparse_labels);

  /// Scenario I from a label fold's training side (MakeLabelFolds): equal
  /// to FromLabelArray(fold.train_labels), but it reuses the training
  /// objects and constraints the fold already holds instead of deriving
  /// the O(L^2) constraint list again.
  static Supervision FromLabelFold(const FoldSplit& fold);

  /// Scenario II.
  static Supervision FromConstraints(ConstraintSet constraints);

  SupervisionKind kind() const { return kind_; }

  /// Pairwise constraints (derived all-pairs in Scenario I).
  const ConstraintSet& constraints() const { return constraints_; }

  /// Scenario I: dataset-sized array, -1 for unlabeled. Empty in
  /// Scenario II.
  const std::vector<int>& sparse_labels() const { return sparse_labels_; }

  /// Objects carrying supervision: the labeled objects (Scenario I) or the
  /// constraint-involved objects (Scenario II). Sorted.
  const std::vector<size_t>& involved_objects() const {
    return involved_objects_;
  }

  /// Dataset-sized mask of involved objects — the objects the external
  /// evaluation must set aside (paper §4.1).
  std::vector<bool> InvolvementMask(size_t n) const;

 private:
  Supervision() = default;

  SupervisionKind kind_ = SupervisionKind::kConstraints;
  ConstraintSet constraints_;
  std::vector<int> sparse_labels_;
  std::vector<size_t> involved_objects_;
};

/// Samples supervision from `data`'s ground truth as the paper's oracle
/// does (§4.1, constraints/oracle.h): Scenario I labels `fraction` of the
/// objects; Scenario II builds the constraint pool from `pool_fraction` of
/// each class and draws `fraction` of it. `rng` is consumed in that order,
/// so one seed always draws the same supervision.
Result<Supervision> DrawOracleSupervision(const Dataset& data,
                                          SupervisionKind kind,
                                          double fraction,
                                          double pool_fraction, Rng* rng);

}  // namespace cvcp

#endif  // CVCP_CORE_SUPERVISION_H_
