#include "common/crc32.h"

#include <bit>
#include <cstring>

#include "common/check.h"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define VUP_CRC32_CLMUL 1
#define VUP_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))
#else
#define VUP_CRC32_CLMUL 0
#endif

namespace vup {

namespace {

/// Slice-by-8 tables: t[0] is the classic bytewise table, t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight table lookups fold
/// eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables s{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      s.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = s.t[k - 1][i];
        s.t[k][i] = (prev >> 8) ^ s.t[0][prev & 0xFF];
      }
    }
    return s;
  }();
  return tables;
}

/// Advances the CRC register `crc` over `n` bytes at `p`.
uint32_t SliceBy8(uint32_t crc, const uint8_t* p, size_t n) {
  const auto& t = Tables().t;
  if constexpr (std::endian::native == std::endian::little) {
    // memcpy loads: any alignment, no aliasing UB; compilers emit plain
    // 32-bit loads.
    for (; n >= 8; p += 8, n -= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if VUP_CRC32_CLMUL

/// The fold needs four 16-byte blocks to fill its accumulators.
constexpr size_t kFoldMinBytes = 64;

VUP_TARGET_CLMUL inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `x` forward over the distance whose constants `k` holds (low half
/// times k's low half, high half times its high half) onto `next`.
VUP_TARGET_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Advances the CRC register `crc` over `n` bytes at `p`, where n >= 64
/// and n is a multiple of 16, by carry-less-multiply folding (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction", Intel, 2009; the constants are Linux's crc32-pclmul ones
/// for the bit-reflected polynomial 0xEDB88320). Each folding constant is
/// a power of x reduced modulo P, bit-reflected, so every step is exact
/// GF(2) arithmetic: the register it returns is the one that SliceBy8
/// returns.
VUP_TARGET_CLMUL uint32_t FoldBy4(uint32_t crc, const uint8_t* p, size_t n) {
  // (low, high) 64-bit halves: k1/k2 fold 512 bits, k3/k4 fold 128 bits.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett: P' (the polynomial with its x^32 term) and mu = x^64 / P.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  __m128i x0 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load16(p));
    x1 = Fold(x1, k1k2, Load16(p + 16));
    x2 = Fold(x2, k1k2, Load16(p + 32));
    x3 = Fold(x3, k1k2, Load16(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k3k4, Load16(p));

  // 128 -> 64 bits: fold the low half over the high one, appending the
  // register's 32 zero bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 significant bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Bit-reflected Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x0), 1));
}

bool FoldSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // VUP_CRC32_CLMUL

bool Crc32PathSupported(Crc32Path path) {
  switch (path) {
    case Crc32Path::kSliceBy8:
      return true;
    case Crc32Path::kClmulFold:
#if VUP_CRC32_CLMUL
      return FoldSupported();
#else
      return false;
#endif
  }
  return false;
}

/// The fastest path the CPU runs, resolved once.
Crc32Path BestCrc32Path() {
  static const Crc32Path best = SupportedCrc32Paths().back();
  return best;
}

/// ScopedCrc32Path's choice for this thread; -1 when none.
thread_local int scoped_path = -1;

}  // namespace

std::vector<Crc32Path> SupportedCrc32Paths() {
  std::vector<Crc32Path> out;
  for (Crc32Path path : {Crc32Path::kSliceBy8, Crc32Path::kClmulFold}) {
    if (Crc32PathSupported(path)) out.push_back(path);
  }
  return out;
}

Crc32Path ActiveCrc32Path() {
  return scoped_path < 0 ? BestCrc32Path()
                         : static_cast<Crc32Path>(scoped_path);
}

ScopedCrc32Path::ScopedCrc32Path(Crc32Path path) : previous_(scoped_path) {
  VUP_CHECK(Crc32PathSupported(path));
  scoped_path = static_cast<int>(path);
}

ScopedCrc32Path::~ScopedCrc32Path() { scoped_path = previous_; }

namespace internal_crc32 {

size_t FoldPrefix([[maybe_unused]] uint32_t* crc,
                  [[maybe_unused]] const uint8_t* p,
                  [[maybe_unused]] size_t n) {
#if VUP_CRC32_CLMUL
  if (n >= kFoldMinBytes && ActiveCrc32Path() == Crc32Path::kClmulFold) {
    const size_t folded = n & ~size_t{15};
    *crc = FoldBy4(*crc, p, folded);
    return folded;
  }
#endif
  return 0;
}

}  // namespace internal_crc32

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  const size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  const size_t folded = internal_crc32::FoldPrefix(&crc, p, n);
  return SliceBy8(crc, p + folded, n - folded) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32(
      std::span<const uint8_t>(static_cast<const uint8_t*>(data), size));
}

void AppendCrc32Trailer(std::string* bytes) {
  const uint32_t crc = Crc32(bytes->data(), bytes->size());
  for (size_t i = 0; i < kCrc32TrailerBytes; ++i) {
    bytes->push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
}

std::optional<uint32_t> CheckCrc32Trailer(const void* data, size_t size) {
  if (size < kCrc32TrailerBytes) return std::nullopt;
  const uint32_t stored = StoredCrc32Trailer(data, size);
  if (Crc32(data, size - kCrc32TrailerBytes) != stored) return std::nullopt;
  return stored;
}

uint32_t StoredCrc32Trailer(const void* data, size_t size) {
  const auto* tail =
      static_cast<const uint8_t*>(data) + size - kCrc32TrailerBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kCrc32TrailerBytes; ++i) {
    stored |= uint32_t{tail[i]} << (8 * i);
  }
  return stored;
}

}  // namespace vup
