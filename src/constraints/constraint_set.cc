#include "constraints/constraint_set.h"

#include <algorithm>

#include "common/strings.h"

namespace cvcp {

Status ConstraintSet::Add(size_t a, size_t b, ConstraintType type) {
  if (a == b) {
    return Status::InvalidArgument(
        Format("self-constraint on object %zu", a));
  }
  if (a > b) std::swap(a, b);
  const uint64_t key = Key(a, b);
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second != type) {
      return Status::InconsistentConstraints(
          Format("pair (%zu, %zu) already constrained with opposite type", a,
                 b));
    }
    return Status::OK();  // duplicate, ignore
  }
  index_.emplace(key, type);
  constraints_.push_back(Constraint{a, b, type});
  if (type == ConstraintType::kMustLink) ++num_must_links_;
  return Status::OK();
}

std::optional<ConstraintType> ConstraintSet::Lookup(size_t a, size_t b) const {
  if (a == b) return std::nullopt;
  if (a > b) std::swap(a, b);
  auto it = index_.find(Key(a, b));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<size_t> ConstraintSet::InvolvedObjects() const {
  std::vector<size_t> out;
  out.reserve(constraints_.size() * 2);
  for (const Constraint& c : constraints_) {
    out.push_back(c.a);
    out.push_back(c.b);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<bool> ConstraintSet::InvolvementMask(size_t n) const {
  std::vector<bool> mask(n, false);
  for (const Constraint& c : constraints_) {
    CVCP_CHECK_LT(c.a, n);
    CVCP_CHECK_LT(c.b, n);
    mask[c.a] = true;
    mask[c.b] = true;
  }
  return mask;
}

ConstraintSet ConstraintSet::RestrictedTo(
    std::span<const size_t> objects) const {
  std::vector<bool> keep;
  size_t max_id = 0;
  for (const Constraint& c : constraints_) {
    max_id = std::max({max_id, c.a, c.b});
  }
  keep.assign(max_id + 1, false);
  for (size_t o : objects) {
    if (o <= max_id) keep[o] = true;
  }
  ConstraintSet out;
  for (const Constraint& c : constraints_) {
    if (keep[c.a] && keep[c.b]) {
      // Cannot conflict: source set is already consistent.
      CVCP_CHECK(out.Add(c.a, c.b, c.type).ok());
    }
  }
  return out;
}

ConstraintSet ConstraintSet::FromLabels(const std::vector<int>& labels,
                                        std::span<const size_t> objects) {
  ConstraintSet out;
  for (size_t i = 0; i < objects.size(); ++i) {
    const size_t a = objects[i];
    CVCP_CHECK_LT(a, labels.size());
    CVCP_CHECK_GE(labels[a], 0);
    for (size_t j = i + 1; j < objects.size(); ++j) {
      const size_t b = objects[j];
      const ConstraintType type = labels[a] == labels[b]
                                      ? ConstraintType::kMustLink
                                      : ConstraintType::kCannotLink;
      CVCP_CHECK(out.Add(a, b, type).ok());
    }
  }
  return out;
}

std::string ConstraintToString(const Constraint& c) {
  return Format("%s(%zu,%zu)",
                c.type == ConstraintType::kMustLink ? "ML" : "CL", c.a, c.b);
}

}  // namespace cvcp
