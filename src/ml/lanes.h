#ifndef VUPRED_ML_LANES_H_
#define VUPRED_ML_LANES_H_

// Lane-parallel building blocks shared by the Gram-matrix and SMO kernels.
//
// Each lane kernel is written once, as an always-inline template, and
// instantiated in one function per instruction set: VUP_TARGET_AVX512
// (x86-64-v4: 32 vector registers, mask-register compares and blends),
// VUP_TARGET_AVX2, and the baseline ISA the library is built for. The
// widest one the CPU supports is chosen once, at first use, by
// __builtin_cpu_supports -- no ifunc, so ThreadSanitizer builds run every
// path too. The library is built with -ffp-contract=off: no path fuses a
// multiply-add (x86-64-v4 has FMA), so every path computes exactly what
// the scalar expressions compute. A per-ISA function inlines everything
// its hot loop calls: a call from x86-64-v4 code out to baseline (SSE)
// code costs a register-state transition each time.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace vup {

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define VUP_LANES_X86 1
#define VUP_TARGET_AVX2 __attribute__((target("avx2")))
#define VUP_TARGET_AVX512 __attribute__((target("arch=x86-64-v4")))
#else
#define VUP_LANES_X86 0
#endif
/// A lane kernel body; inlined into each per-ISA function, which compiles
/// it for that function's instruction set.
#define VUP_LANE_INLINE __attribute__((always_inline)) inline

/// The instruction sets a lane kernel is built for.
enum class LaneIsa : int {
  kBaseline = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

std::string_view LaneIsaName(LaneIsa isa);

/// Every path this CPU (and OS) runs, baseline first; the x86 paths only
/// in GCC x86-64 builds.
std::vector<LaneIsa> SupportedLaneIsas();

/// The path the lane kernels run on this thread: the widest supported
/// one, unless a ScopedLaneIsa is active.
LaneIsa ActiveLaneIsa();

/// Runs the lane kernels of the current thread on `isa` (which must be
/// supported) for the scope's lifetime, so tests can check every path
/// against the scalar code. Scopes nest.
class ScopedLaneIsa {
 public:
  explicit ScopedLaneIsa(LaneIsa isa);
  ~ScopedLaneIsa();
  ScopedLaneIsa(const ScopedLaneIsa&) = delete;
  ScopedLaneIsa& operator=(const ScopedLaneIsa&) = delete;

 private:
  int previous_;
};

/// W doubles as one vector value, `T`: each lane runs its own IEEE
/// operations, so a lane computes exactly what the scalar expression
/// computes. `Mask` is a per-lane compare result (all ones or zero).
/// `At(p)` is the W doubles at `p` (8-byte aligned is enough) as an
/// lvalue; vectors are passed by reference, never by value, because the
/// by-value ABI differs between the paths.
template <size_t W>
struct LaneVec {
  typedef double T __attribute__((vector_size(W * sizeof(double))));
  typedef int64_t Mask __attribute__((vector_size(W * sizeof(double))));
  typedef double U
      __attribute__((vector_size(W * sizeof(double)), aligned(8), may_alias));
  static const U& At(const double* p) {
    return *reinterpret_cast<const U*>(p);
  }
  static U& At(double* p) { return *reinterpret_cast<U*>(p); }
};

}  // namespace vup

#endif  // VUPRED_ML_LANES_H_
