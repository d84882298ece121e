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

}  // namespace vup
