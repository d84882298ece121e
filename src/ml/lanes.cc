#include "ml/lanes.h"

#include "common/check.h"

namespace vup {

namespace {

/// Whether this CPU (and OS) runs `isa`.
bool LaneIsaSupported(LaneIsa isa) {
  switch (isa) {
    case LaneIsa::kBaseline:
      return true;
#if VUP_LANES_X86
    case LaneIsa::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case LaneIsa::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("x86-64-v4");
#else
    case LaneIsa::kAvx2:
    case LaneIsa::kAvx512:
      return false;
#endif
  }
  return false;
}

/// The widest path the CPU runs, resolved once.
LaneIsa BestLaneIsa() {
  static const LaneIsa best = SupportedLaneIsas().back();
  return best;
}

/// ScopedLaneIsa's choice for this thread; -1 when none.
thread_local int scoped_isa = -1;

/// ExpLanes on W lanes; a last partial vector is read through a
/// zero-padded copy and stored only up to n.
template <size_t W>
VUP_LANE_INLINE void ExpSpan(const double* x, double* y, size_t n) {
  typedef typename LaneVec<W>::T V;
  size_t i = 0;
  for (; i + W <= n; i += W) {
    const V v = LaneVec<W>::At(x + i);
    V e;
    ExpBody(v, e);
    LaneVec<W>::At(y + i) = e;
  }
  if (i == n) return;
  V v = {};
  for (size_t l = 0; l < n - i; ++l) v[l] = x[i + l];
  V e;
  ExpBody(v, e);
  StoreFirstLanes<W>(y + i, e, n - i);
}

void ExpSpanBaseline(const double* x, double* y, size_t n) {
  ExpSpan<2>(x, y, n);
}

#if VUP_LANES_X86
VUP_TARGET_AVX2
void ExpSpanAvx2(const double* x, double* y, size_t n) {
  ExpSpan<4>(x, y, n);
}

VUP_TARGET_AVX512
void ExpSpanAvx512(const double* x, double* y, size_t n) {
  ExpSpan<8>(x, y, n);
}
#endif

}  // namespace

std::string_view LaneIsaName(LaneIsa isa) {
  switch (isa) {
    case LaneIsa::kBaseline:
      return "baseline";
    case LaneIsa::kAvx2:
      return "avx2";
    case LaneIsa::kAvx512:
      return "x86-64-v4";
  }
  return "?";
}

std::vector<LaneIsa> SupportedLaneIsas() {
  std::vector<LaneIsa> out;
  for (LaneIsa isa : {LaneIsa::kBaseline, LaneIsa::kAvx2, LaneIsa::kAvx512}) {
    if (LaneIsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

LaneIsa ActiveLaneIsa() {
  return scoped_isa < 0 ? BestLaneIsa() : static_cast<LaneIsa>(scoped_isa);
}

ScopedLaneIsa::ScopedLaneIsa(LaneIsa isa) : previous_(scoped_isa) {
  VUP_CHECK(LaneIsaSupported(isa));
  scoped_isa = static_cast<int>(isa);
}

ScopedLaneIsa::~ScopedLaneIsa() { scoped_isa = previous_; }

void ExpLanes(std::span<const double> x, std::span<double> y) {
  VUP_CHECK(x.size() == y.size());
  switch (ActiveLaneIsa()) {
#if VUP_LANES_X86
    case LaneIsa::kAvx512:
      ExpSpanAvx512(x.data(), y.data(), x.size());
      break;
    case LaneIsa::kAvx2:
      ExpSpanAvx2(x.data(), y.data(), x.size());
      break;
#endif
    default:
      ExpSpanBaseline(x.data(), y.data(), x.size());
      break;
  }
}

}  // namespace vup
