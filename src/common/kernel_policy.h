#ifndef CVCP_COMMON_KERNEL_POLICY_H_
#define CVCP_COMMON_KERNEL_POLICY_H_

/// \file
/// The distance-kernel policy: which inner-loop implementation every
/// distance computation in a run uses. The policy is explicit config
/// state — it rides in `ExecutionContext` (common/parallel.h) through
/// `ClusterContext`, `TrialSpec`, and `BenchOptions` — not a hidden
/// process-wide mode. A process-wide *default* still exists, but only as
/// the resolution target of the `kDefault` sentinel (so tests and tools
/// that build contexts without explicit policy follow the environment),
/// and it is initialized once from `CVCP_DISTANCE_KERNEL`.
///
/// Determinism: `kFixedLane` is the default and is bitwise-reproducible
/// for any thread count and across scalar-emulated vs vector hardware,
/// because every implementation (portable scalar reference, AVX2, NEON)
/// commits to the same fixed 8-lane strided accumulation order and the
/// same lane-reduction tree (see common/distance_kernels.h). The legacy
/// left-to-right scalar order stays available as `kScalarLegacy`; the
/// reassociated 4-accumulator unrolled kernels stay as `kUnrolled`.
/// Within one policy, results are byte-identical everywhere; across
/// policies they differ by rounding (~1 ulp per term).

namespace cvcp {

/// Which distance-kernel implementation to use.
enum class DistanceKernelPolicy {
  /// Sentinel: resolve to the process default (env-initialized).
  kDefault = 0,
  /// Fixed 8-lane strided accumulation (SIMD when available, portable
  /// scalar otherwise — bitwise identical either way). The default.
  kFixedLane = 1,
  /// The original left-to-right scalar loops (pre-SIMD byte baseline).
  kScalarLegacy = 2,
  /// 4-accumulator unrolled scalar loops (reassociated sums).
  kUnrolled = 3,
};

/// The process default that `kDefault` resolves to. Initialized once,
/// lazily, from `CVCP_DISTANCE_KERNEL` ("fixed" / "fixed-lane",
/// "scalar-legacy" / "scalar", "unrolled"); `kFixedLane` when the
/// variable is unset or unrecognized.
DistanceKernelPolicy DefaultDistanceKernelPolicy();

/// Overrides the process default (thread-safe). `policy` must not be
/// `kDefault`. Prefer threading the policy through `ExecutionContext`;
/// this exists for the bench flag layer and the deprecated
/// `SetUnrolledDistanceKernels` shim.
void SetDefaultDistanceKernelPolicy(DistanceKernelPolicy policy);

/// `policy`, with `kDefault` resolved to `DefaultDistanceKernelPolicy()`.
DistanceKernelPolicy ResolveDistanceKernelPolicy(DistanceKernelPolicy policy);

/// Stable display name: "default", "fixed-lane", "scalar-legacy",
/// "unrolled".
const char* DistanceKernelPolicyName(DistanceKernelPolicy policy);

/// Parses a policy name (the spellings accepted by
/// `--distance-kernel` / `CVCP_DISTANCE_KERNEL`; "scalar" is an alias
/// for "scalar-legacy"). Returns false and leaves `*out` untouched on an
/// unrecognized name.
bool ParseDistanceKernelPolicy(const char* name, DistanceKernelPolicy* out);

}  // namespace cvcp

#endif  // CVCP_COMMON_KERNEL_POLICY_H_
