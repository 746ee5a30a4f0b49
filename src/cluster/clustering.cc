#include "cluster/clustering.h"

#include <unordered_map>

namespace cvcp {

Clustering::Clustering(std::vector<int> assignment)
    : assignment_(std::move(assignment)) {
  for (int id : assignment_) CVCP_CHECK_GE(id, kNoise);
}

int Clustering::NumClusters() const {
  std::unordered_map<int, bool> seen;
  for (int id : assignment_) {
    if (id != kNoise) seen[id] = true;
  }
  return static_cast<int>(seen.size());
}

size_t Clustering::NumNoise() const {
  size_t count = 0;
  for (int id : assignment_) {
    if (id == kNoise) ++count;
  }
  return count;
}

std::vector<std::vector<size_t>> Clustering::Groups() const {
  std::unordered_map<int, size_t> compact;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < assignment_.size(); ++i) {
    const int id = assignment_[i];
    if (id == kNoise) continue;
    auto [it, inserted] = compact.emplace(id, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  return groups;
}

}  // namespace cvcp
