#ifndef CVCP_CONSTRAINTS_CONSTRAINT_SET_H_
#define CVCP_CONSTRAINTS_CONSTRAINT_SET_H_

/// \file
/// Instance-level pairwise constraints: must-link ("these two objects belong
/// to the same cluster") and cannot-link ("they do not"). A ConstraintSet is
/// a deduplicated, conflict-checked collection with deterministic iteration
/// order — the shared currency between the supervision oracle, the fold
/// splitter, the clustering algorithms, and the constraint-classification
/// F-measure.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace cvcp {

/// Kind of a pairwise constraint.
enum class ConstraintType : uint8_t {
  kMustLink = 1,    ///< class "1" in the paper's classification view
  kCannotLink = 0,  ///< class "0"
};

/// One pairwise constraint; endpoints are normalized so that a < b.
struct Constraint {
  size_t a;
  size_t b;
  ConstraintType type;

  bool operator==(const Constraint& other) const = default;
};

/// Deduplicated set of pairwise constraints over objects {0, ..., N-1}.
class ConstraintSet {
 public:
  ConstraintSet() = default;

  /// Adds a constraint. Errors:
  /// - kInvalidArgument for a self-pair (a == b);
  /// - kInconsistentConstraints if the pair is already present with the
  ///   opposite type.
  /// Adding an existing constraint again is a silent no-op.
  Status Add(size_t a, size_t b, ConstraintType type);

  Status AddMustLink(size_t a, size_t b) {
    return Add(a, b, ConstraintType::kMustLink);
  }
  Status AddCannotLink(size_t a, size_t b) {
    return Add(a, b, ConstraintType::kCannotLink);
  }

  /// All constraints in insertion order.
  std::span<const Constraint> all() const { return constraints_; }

  size_t size() const { return constraints_.size(); }
  bool empty() const { return constraints_.empty(); }
  size_t num_must_links() const { return num_must_links_; }
  size_t num_cannot_links() const {
    return constraints_.size() - num_must_links_;
  }

  /// Type of the constraint on (a, b), if any.
  std::optional<ConstraintType> Lookup(size_t a, size_t b) const;

  /// Sorted unique object ids that appear in at least one constraint.
  std::vector<size_t> InvolvedObjects() const;

  /// Flags (indexed by object id, length n) marking involved objects.
  std::vector<bool> InvolvementMask(size_t n) const;

  /// Constraints whose *both* endpoints are in `objects`.
  ConstraintSet RestrictedTo(std::span<const size_t> objects) const;

  /// Derives all pairwise constraints among `objects` from class labels:
  /// same label => must-link, different => cannot-link. `labels` is indexed
  /// by object id; every selected object must have a label >= 0.
  static ConstraintSet FromLabels(const std::vector<int>& labels,
                                  std::span<const size_t> objects);

  bool operator==(const ConstraintSet& other) const {
    return constraints_ == other.constraints_;
  }

 private:
  static uint64_t Key(size_t a, size_t b) {
    // Normalized (a < b); object ids are far below 2^32 in this library.
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
  }

  std::vector<Constraint> constraints_;
  std::unordered_map<uint64_t, ConstraintType> index_;
  size_t num_must_links_ = 0;
};

/// Human-readable "ML(3,7)" / "CL(1,4)" form, mainly for error messages.
std::string ConstraintToString(const Constraint& c);

}  // namespace cvcp

#endif  // CVCP_CONSTRAINTS_CONSTRAINT_SET_H_
