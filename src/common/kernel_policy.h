#ifndef CVCP_COMMON_KERNEL_POLICY_H_
#define CVCP_COMMON_KERNEL_POLICY_H_

/// \file
/// The residue of the retired distance-kernel policies. The engine has one
/// numerics path — the dispatched fixed-lane table of
/// common/distance_kernels.h — and nothing in src/ reads a policy.
///
/// The enum and its two fields (`ExecutionContext::distance_kernel` and
/// `MpckMeansConfig::kernel`) remain only because the repository
/// benchmark copies one field into the other (perfbench/src/stages.cc),
/// and only a benchmark change may edit perfbench/. That change,
/// ROADMAP.md item 2(a), deletes the enum, both fields and the copy.

namespace cvcp {

/// Inert: the one value the two remaining fields can hold.
enum class DistanceKernelPolicy { kFixedLane };

}  // namespace cvcp

#endif  // CVCP_COMMON_KERNEL_POLICY_H_
