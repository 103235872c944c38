// Fast exp(x) for non-positive arguments — the single transcendental in
// the KDE leaf scans, which dominate batched density evaluation.
//
// NegExpPair evaluates two kernels at once: on x86-64 it runs the
// polynomial two-wide in SSE2 registers; elsewhere it falls back to two
// scalar evaluations of the *same* arithmetic. negexp_internal::NegExp4Avx2
// evaluates four in one AVX2 register; the leaf scan (leaf_scan.h) picks
// it at runtime behind HasAvx2(), so the build stays generic x86-64, and
// scans with pair calls otherwise — on ARM the pair path is the scalar
// reference, so NEON hosts are covered without ISA-specific code. Packed
// IEEE operations round exactly like their scalar counterparts and the
// polynomial is pure mul/add (no FMA contraction; AVX2 here never implies
// FMA), so all paths produce bitwise-identical results — determinism does
// not depend on the instruction set.
//
// Algorithm (Cephes-style): k = round(x / ln 2) via the 1.5 * 2^52 magic
// constant, r = x - k*ln2 with a hi/lo split, e^r from a degree-11 Taylor
// polynomial on |r| <= ln2 / 2 (truncation < 7e-15 relative), scaled by
// 2^k assembled directly in the exponent bits. Inputs below -708 flush to
// exactly 0 (exp(-708) already borders DBL_MIN; the subnormal range is
// not worth the branch). Measured max relative error vs std::exp is
// under 1e-14 across [-708, 0] — far inside the KDE's 1e-9 evaluation
// tolerance — and NegExp(0) == 1 exactly.

#ifndef FAIRDRIFT_KDE_NEGEXP_H_
#define FAIRDRIFT_KDE_NEGEXP_H_

#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// AVX2 intrinsics are emitted inside target("avx2") functions only, so
// including them does not require -mavx2 on the command line.
#define FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif

namespace fairdrift {

namespace negexp_internal {

inline constexpr double kLog2e = 1.4426950408889634074;
/// 1.5 * 2^52: adding it rounds a double to the nearest integer in the
/// low mantissa bits (valid for |x| < 2^51).
inline constexpr double kRoundMagic = 6755399441055744.0;
/// ln2 split so that k * kC1 is exact for the k range in use.
inline constexpr double kC1 = 6.93145751953125e-1;
inline constexpr double kC2 = 1.42860682030941723212e-6;
/// Below this exp underflows past DBL_MIN; flush to zero.
inline constexpr double kUnderflow = -708.0;

/// Taylor coefficients 1/11! ... 1/2!, then the leading 1 + r handled in
/// the Horner tail.
inline constexpr double kPoly[] = {
    1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0,
    1.0 / 5040.0,     1.0 / 720.0,     1.0 / 120.0,    1.0 / 24.0,
    1.0 / 6.0,        0.5,
};

/// Portable scalar reference; the public entry points below dispatch so
/// that scalar and paired calls share one code path per platform (a
/// compiler free to contract mul+add into FMA could otherwise split a
/// scalar Horner from the SSE2 one and void the bitwise identity).
inline double NegExpPortable(double x) {
  if (x < kUnderflow) return 0.0;
  double t = x * kLog2e;
  double k = (t + kRoundMagic) - kRoundMagic;
  double r = (x - k * kC1) - k * kC2;
  double p = kPoly[0];
  for (int i = 1; i < 10; ++i) p = p * r + kPoly[i];
  p = p * r + 1.0;
  p = p * r + 1.0;
  uint64_t bits = static_cast<uint64_t>(static_cast<int64_t>(k) + 1023) << 52;
  double scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

}  // namespace negexp_internal

#if defined(__SSE2__)
namespace negexp_internal {
inline double NegExpSse2Lane(double x);  // defined after NegExpPair
}  // namespace negexp_internal
#endif

/// exp(x) for x <= 0; see the file comment for accuracy and determinism.
inline double NegExp(double x) {
#if defined(__SSE2__)
  // Route through the packed kernel so every NegExp evaluation on x86 —
  // scalar tail or paired lane — runs the identical instructions.
  return negexp_internal::NegExpSse2Lane(x);
#else
  return negexp_internal::NegExpPortable(x);
#endif
}

/// (exp(x0), exp(x1)) for x0, x1 <= 0, bitwise identical to NegExp lane
/// by lane on every platform.
inline void NegExpPair(double x0, double x1, double* e0, double* e1) {
#if defined(__SSE2__)
  using namespace negexp_internal;
  __m128d x = _mm_set_pd(x1, x0);
  __m128d t = _mm_mul_pd(x, _mm_set1_pd(kLog2e));
  __m128d magic = _mm_set1_pd(kRoundMagic);
  __m128d y = _mm_add_pd(t, magic);
  __m128d k = _mm_sub_pd(y, magic);
  __m128d r = _mm_sub_pd(_mm_sub_pd(x, _mm_mul_pd(k, _mm_set1_pd(kC1))),
                         _mm_mul_pd(k, _mm_set1_pd(kC2)));
  __m128d p = _mm_set1_pd(kPoly[0]);
  for (int i = 1; i < 10; ++i) {
    p = _mm_add_pd(_mm_mul_pd(p, r), _mm_set1_pd(kPoly[i]));
  }
  p = _mm_add_pd(_mm_mul_pd(p, r), _mm_set1_pd(1.0));
  p = _mm_add_pd(_mm_mul_pd(p, r), _mm_set1_pd(1.0));
  // 2^k: the rounded integers sit in the low 32 bits of y's mantissa
  // (two's complement); bias and shift them into the exponent field.
  __m128i yi = _mm_castpd_si128(y);
  __m128i k32 = _mm_shuffle_epi32(yi, _MM_SHUFFLE(3, 1, 2, 0));  // lanes 0,2
  __m128i biased = _mm_add_epi32(k32, _mm_set1_epi32(1023));
  __m128i scale_bits =
      _mm_unpacklo_epi32(_mm_setzero_si128(), _mm_slli_epi32(biased, 20));
  __m128d result = _mm_mul_pd(p, _mm_castsi128_pd(scale_bits));
  // Flush x < -708 lanes to exactly 0 (their k/scale bits are garbage).
  __m128d underflow = _mm_cmplt_pd(x, _mm_set1_pd(kUnderflow));
  result = _mm_andnot_pd(underflow, result);
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, result);
  *e0 = lanes[0];
  *e1 = lanes[1];
#else
  *e0 = negexp_internal::NegExpPortable(x0);
  *e1 = negexp_internal::NegExpPortable(x1);
#endif
}

#if defined(__SSE2__)
namespace negexp_internal {
inline double NegExpSse2Lane(double x) {
  double e0, e1;
  NegExpPair(x, x, &e0, &e1);
  return e0;
}
}  // namespace negexp_internal
#endif

/// True when the running CPU executes AVX2 (cached after the first call).
/// Exposed so benchmarks and CI gates can tell whether the four-wide
/// kernel path is live on this host.
inline bool HasAvx2() {
#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

#if defined(FAIRDRIFT_NEGEXP_HAVE_AVX2_PATH)
namespace negexp_internal {
/// Four-wide NegExp on one AVX2 register. Same constants, same mul/add
/// ordering as the SSE2 pair and the portable scalar, so every lane is
/// bitwise identical to NegExp of that lane. Register in, register out,
/// so the leaf scan can keep several of these chains in flight without a
/// round trip through memory. Compiled with a function-level target
/// attribute (avx2 only: never fma, which would contract the Horner
/// steps); only reachable behind the HasAvx2() check.
__attribute__((target("avx2"))) inline __m256d NegExp4Avx2(__m256d x) {
  __m256d t = _mm256_mul_pd(x, _mm256_set1_pd(kLog2e));
  __m256d magic = _mm256_set1_pd(kRoundMagic);
  __m256d y = _mm256_add_pd(t, magic);
  __m256d k = _mm256_sub_pd(y, magic);
  __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kC1))),
                    _mm256_mul_pd(k, _mm256_set1_pd(kC2)));
  __m256d p = _mm256_set1_pd(kPoly[0]);
  for (int i = 1; i < 10; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kPoly[i]));
  }
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  // 2^k: same trick as the SSE2 pair, applied per 128-bit lane (both the
  // dword shuffle and the unpack operate within each half).
  __m256i yi = _mm256_castpd_si256(y);
  __m256i k32 = _mm256_shuffle_epi32(yi, _MM_SHUFFLE(3, 1, 2, 0));
  __m256i biased = _mm256_add_epi32(k32, _mm256_set1_epi32(1023));
  __m256i scale_bits = _mm256_unpacklo_epi32(_mm256_setzero_si256(),
                                             _mm256_slli_epi32(biased, 20));
  __m256d result = _mm256_mul_pd(p, _mm256_castsi256_pd(scale_bits));
  __m256d underflow =
      _mm256_cmp_pd(x, _mm256_set1_pd(kUnderflow), _CMP_LT_OQ);
  return _mm256_andnot_pd(underflow, result);
}
}  // namespace negexp_internal
#endif

}  // namespace fairdrift

#endif  // FAIRDRIFT_KDE_NEGEXP_H_
