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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
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

/// Stores lanes 0..count-1 of `v` at `p`, count < W, and touches no
/// memory past them. A fixed W-step loop: a count-long one would become a
/// call to memcpy, out of the caller's ISA.
template <size_t W>
VUP_LANE_INLINE void StoreFirstLanes(double* p,
                                     const typename LaneVec<W>::T& v,
                                     size_t count) {
  for (size_t l = 0; l < W; ++l) {
    if (l < count) p[l] = v[l];
  }
}

/// y = e^x, on a double or on every lane of a LaneVec<W>::T: one body, so
/// each lane computes exactly what the scalar code computes, on every path
/// and every host. No libm (whose result may depend on the CPU) and no
/// fused multiply-add. Cody-Waite reduction x = k ln2 + r, |r| <= ln2/2,
/// with k ln2's high part exact; e^r by its degree-13 Taylor polynomial,
/// whose remainder is below 0.03 ULP, in Horner form; then two exact-range
/// scalings by 2^k1 and 2^k2, k1 + k2 = k, so that a subnormal result
/// rounds once. Against expl, the largest error over 12 million random
/// arguments was 0.89 ULP (0.75 of the spacing 2^-1074 for subnormal
/// results); about 1 in 10 results is not the nearest double. x < -746
/// gives +0, x > 710 gives +inf (both are clamped into the range the
/// scaling covers), e^(+-0) = 1 exactly, and NaN gives NaN.
template <class V>
VUP_LANE_INLINE void ExpBody(const V& x_in, V& y) {
  constexpr double kMin = -746.0;
  constexpr double kMax = 710.0;
  constexpr double kLog2e = 0x1.71547652b82fep+0;
  // Adding and subtracting 1.5 * 2^52 rounds to the nearest integer.
  constexpr double kRound = 0x1.8p52;
  // k + kBiasedRound has k + 1023, the biased exponent of 2^k, in its low
  // mantissa bits.
  constexpr double kBiasedRound = 0x1.8p52 + 1023.0;
  // ln 2 = kLn2Hi + kLn2Lo; kLn2Hi's low 32 mantissa bits are zero, so
  // k * kLn2Hi is exact for |k| < 2^21.
  constexpr double kLn2Hi = 0x1.62e42feep-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  // NaN fails both compares and passes through.
  V x = x_in < kMin ? kMin + V{} : x_in;
  x = x > kMax ? kMax + V{} : x;
  const V k = (x * kLog2e + kRound) - kRound;
  const V hi = x - k * kLn2Hi;  // Exact.
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  // e^r = 1 + r + r^2 q(r), q = sum of r^(i-2) / i! for i = 2..13.
  V q = r * (1.0 / 6227020800.0) + (1.0 / 479001600.0);
  q = q * r + (1.0 / 39916800.0);
  q = q * r + (1.0 / 3628800.0);
  q = q * r + (1.0 / 362880.0);
  q = q * r + (1.0 / 40320.0);
  q = q * r + (1.0 / 5040.0);
  q = q * r + (1.0 / 720.0);
  q = q * r + (1.0 / 120.0);
  q = q * r + (1.0 / 24.0);
  q = q * r + (1.0 / 6.0);
  q = q * r + 0.5;
  // hi - lo enters unrounded: r's own rounding would cost 0.08 ULP.
  const V p = (hi + (r * r * q - lo)) + 1.0;
  // k in [-1076, 1024] splits into k1, k2 in [-538, 512]: p * 2^k1 is
  // exact and normal, and the product with 2^k2 rounds once.
  const V k1 = (k * 0.5 + kRound) - kRound;
  const V k2 = k - k1;
  V s1;
  V s2;
  if constexpr (std::is_same_v<V, double>) {
    s1 = std::bit_cast<double>(std::bit_cast<uint64_t>(k1 + kBiasedRound)
                               << 52);
    s2 = std::bit_cast<double>(std::bit_cast<uint64_t>(k2 + kBiasedRound)
                               << 52);
  } else {
    // A cast between vector types of one size keeps the bits.
    typedef uint64_t B __attribute__((vector_size(sizeof(V))));
    s1 = (V)((B)(k1 + kBiasedRound) << 52);
    s2 = (V)((B)(k2 + kBiasedRound) << 52);
  }
  y = p * s1 * s2;
}

/// e^x by ExpBody on a double.
inline double Exp(double x) {
  double y;
  ExpBody(x, y);
  return y;
}

/// y[i] = Exp(x[i]) for every i, on the active lane path; x and y may be
/// the same span.
void ExpLanes(std::span<const double> x, std::span<double> y);

}  // namespace vup

#endif  // VUPRED_ML_LANES_H_
