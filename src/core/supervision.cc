#include "core/supervision.h"

#include <algorithm>

#include "constraints/oracle.h"

namespace cvcp {

Supervision Supervision::FromLabels(const Dataset& data,
                                    std::vector<size_t> labeled_objects) {
  CVCP_CHECK(data.has_labels());
  std::sort(labeled_objects.begin(), labeled_objects.end());
  labeled_objects.erase(
      std::unique(labeled_objects.begin(), labeled_objects.end()),
      labeled_objects.end());
  Supervision s;
  s.kind_ = SupervisionKind::kLabels;
  s.sparse_labels_.assign(data.size(), -1);
  for (size_t o : labeled_objects) {
    CVCP_CHECK_LT(o, data.size());
    s.sparse_labels_[o] = data.label(o);
  }
  s.constraints_ =
      ConstraintSet::FromLabels(s.sparse_labels_, labeled_objects);
  s.involved_objects_ = std::move(labeled_objects);
  return s;
}

Supervision Supervision::FromLabelArray(std::vector<int> sparse_labels) {
  Supervision s;
  s.kind_ = SupervisionKind::kLabels;
  for (size_t o = 0; o < sparse_labels.size(); ++o) {
    if (sparse_labels[o] >= 0) s.involved_objects_.push_back(o);
  }
  s.constraints_ =
      ConstraintSet::FromLabels(sparse_labels, s.involved_objects_);
  s.sparse_labels_ = std::move(sparse_labels);
  return s;
}

Supervision Supervision::FromLabelFold(const FoldSplit& fold) {
  Supervision s;
  s.kind_ = SupervisionKind::kLabels;
  s.constraints_ = fold.train_constraints;
  s.sparse_labels_ = fold.train_labels;
  s.involved_objects_ = fold.train_objects;
  return s;
}

Supervision Supervision::FromConstraints(ConstraintSet constraints) {
  Supervision s;
  s.kind_ = SupervisionKind::kConstraints;
  s.involved_objects_ = constraints.InvolvedObjects();
  s.constraints_ = std::move(constraints);
  return s;
}

std::vector<bool> Supervision::InvolvementMask(size_t n) const {
  std::vector<bool> mask(n, false);
  for (size_t o : involved_objects_) {
    CVCP_CHECK_LT(o, n);
    mask[o] = true;
  }
  return mask;
}

Result<Supervision> DrawOracleSupervision(const Dataset& data,
                                          SupervisionKind kind,
                                          double fraction,
                                          double pool_fraction, Rng* rng) {
  if (kind == SupervisionKind::kLabels) {
    CVCP_ASSIGN_OR_RETURN(std::vector<size_t> labeled,
                          SampleLabeledObjects(data, fraction, rng));
    return Supervision::FromLabels(data, std::move(labeled));
  }
  CVCP_ASSIGN_OR_RETURN(ConstraintSet pool,
                        BuildConstraintPool(data, pool_fraction, rng));
  CVCP_ASSIGN_OR_RETURN(ConstraintSet sampled,
                        SampleConstraints(pool, fraction, rng));
  return Supervision::FromConstraints(std::move(sampled));
}

}  // namespace cvcp
