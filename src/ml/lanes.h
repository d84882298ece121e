#ifndef VUPRED_ML_LANES_H_
#define VUPRED_ML_LANES_H_

// Lane-parallel building blocks shared by the Gram-matrix and SMO kernels.

#include <cstddef>
#include <cstdint>

namespace vup {

// VUP_LANE_CLONES marks a lane-parallel loop for function multiversioning:
// GCC on x86-64 builds an AVX2 clone next to the baseline one and picks it
// at load time. AVX2 does not imply FMA, so neither clone contracts a
// multiply-add and both give the scalar code's bits. Not under
// ThreadSanitizer: its instrumented ifunc resolver runs before the TSan
// runtime is up and crashes the program at load, so that build runs the
// baseline code only.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define VUP_LANE_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define VUP_LANE_CLONES
#endif

/// Four doubles, one per lane; each lane runs its own IEEE operations, so
/// a lane computes exactly what the scalar expression computes. The
/// baseline clone lowers it to SSE2 pairs.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));
/// Per-lane comparison result (all ones or zero), also per-lane indices.
typedef int64_t LaneMask __attribute__((vector_size(4 * sizeof(double))));
inline constexpr size_t kLaneWidth = 4;

/// The four doubles at `p` (8-byte aligned is enough) as a Lanes lvalue.
/// By reference, so no vector crosses a function boundary by value (whose
/// ABI differs between the clones).
typedef double UnalignedLanes
    __attribute__((vector_size(4 * sizeof(double)), aligned(8), may_alias));
inline const UnalignedLanes& LanesAt(const double* p) {
  return *reinterpret_cast<const UnalignedLanes*>(p);
}
inline UnalignedLanes& LanesAt(double* p) {
  return *reinterpret_cast<UnalignedLanes*>(p);
}

}  // namespace vup

#endif  // VUPRED_ML_LANES_H_
