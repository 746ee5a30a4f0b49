#ifndef CVCP_TESTS_FAILING_CLUSTERER_H_
#define CVCP_TESTS_FAILING_CLUSTERER_H_

// A test clusterer for first-error-wins checks: plain k-means, except that
// every k in a chosen set fails with a message naming that k. Failures are
// a pure function of k, so a sweep that fans out in any order must still
// report the failure a serial, stop-at-first-error loop would meet first.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/clusterer.h"

namespace cvcp {

class FailAtKClusterer : public SemiSupervisedClusterer {
 public:
  explicit FailAtKClusterer(std::vector<int> failing_k)
      : failing_k_(std::move(failing_k)) {}

  std::string name() const override { return "FailAtK"; }
  std::string param_name() const override { return "k"; }

  /// The message a run at `k` fails with.
  static std::string Message(int k) { return Format("k = %d fails", k); }

 protected:
  Result<Clustering> DoCluster(const Dataset& data,
                               const Supervision& supervision, int param,
                               Rng* rng,
                               const ClusterContext& context) const override {
    if (std::find(failing_k_.begin(), failing_k_.end(), param) !=
        failing_k_.end()) {
      return Status::Internal(Message(param));
    }
    return kmeans_.Cluster(data, supervision, param, rng, context);
  }

 private:
  std::vector<int> failing_k_;
  KMeansClusterer kmeans_;
};

}  // namespace cvcp

#endif  // CVCP_TESTS_FAILING_CLUSTERER_H_
