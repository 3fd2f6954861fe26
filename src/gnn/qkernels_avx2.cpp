// AVX2 int8 GEMM tier, compiled with -mavx2 (see src/CMakeLists.txt) and
// only entered after the cpuid check in common/simd.cpp passes.
//
// _mm256_cvtepi8_epi16 + _mm256_madd_epi16 is chosen deliberately over the
// classic _mm256_maddubs_epi16: maddubs saturates its pairwise u8*s8 sums
// at int16 (255*127*2 > 32767), which would make the AVX2 tier diverge
// from scalar/SSE2 on large activations. Sign-extend + madd is exact int32
// with no saturation point, so cross-tier bit-identity holds by
// construction instead of by argument about value ranges.

#include "gnn/qkernels.h"

#if defined(__AVX2__)
#include <immintrin.h>

namespace m3dfl::gnn {

namespace {

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(lo);
}

/// acc += one 32-byte block of bj (sign-extended) madd'ed against the
/// pre-extended activation halves.
inline __m256i fma_block(__m256i acc, __m256i a_lo, __m256i a_hi,
                         const std::int8_t* bj) {
  const __m256i bv =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bj));
  const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
  const __m256i b_hi =
      _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
  acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
}

void qgemm_avx2_impl(const std::int8_t* a, const std::int8_t* bt,
                     std::int32_t* c, std::size_t m, std::size_t n,
                     std::size_t stride) {
  if (stride == 32) {
    // Single-block fast path: every row is exactly one kQGemmPad block, so
    // the activation row is loaded and sign-extended once per output row —
    // no k loop at all. This is the shape of every layer the serve hot
    // loop runs (feature widths <= 32 pad to one block). Same adds in the
    // same order as the general loop below, so still bit-identical.
    for (std::size_t i = 0; i < m; ++i) {
      const __m256i av = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(a + i * stride));
      const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
      const __m256i a_hi =
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const std::int8_t* bj = bt + j * stride;
        const __m256i acc0 =
            fma_block(_mm256_setzero_si256(), a_lo, a_hi, bj);
        const __m256i acc1 =
            fma_block(_mm256_setzero_si256(), a_lo, a_hi, bj + stride);
        const __m256i acc2 =
            fma_block(_mm256_setzero_si256(), a_lo, a_hi, bj + 2 * stride);
        const __m256i acc3 =
            fma_block(_mm256_setzero_si256(), a_lo, a_hi, bj + 3 * stride);
        const __m256i t0 = _mm256_hadd_epi32(acc0, acc1);
        const __m256i t1 = _mm256_hadd_epi32(acc2, acc3);
        const __m256i t2 = _mm256_hadd_epi32(t0, t1);
        const __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                          _mm256_extracti128_si256(t2, 1));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * n + j), sum);
      }
      for (; j < n; ++j) {
        c[i * n + j] = hsum_epi32(
            fma_block(_mm256_setzero_si256(), a_lo, a_hi, bt + j * stride));
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* ai = a + i * stride;
    // Four outputs per pass: the activation block is loaded and
    // sign-extended once per k step instead of once per (j, k), and the
    // four accumulators reduce together with three hadds instead of four
    // full horizontal sums. Every add is exact int32, so this blocking is
    // bit-identical to the one-output loop below (and to scalar/SSE2).
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* b0 = bt + (j + 0) * stride;
      const std::int8_t* b1 = bt + (j + 1) * stride;
      const std::int8_t* b2 = bt + (j + 2) * stride;
      const std::int8_t* b3 = bt + (j + 3) * stride;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (std::size_t k = 0; k < stride; k += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ai + k));
        const __m256i a_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
        const __m256i a_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
        acc0 = fma_block(acc0, a_lo, a_hi, b0 + k);
        acc1 = fma_block(acc1, a_lo, a_hi, b1 + k);
        acc2 = fma_block(acc2, a_lo, a_hi, b2 + k);
        acc3 = fma_block(acc3, a_lo, a_hi, b3 + k);
      }
      // hadd tree: t2's low half holds [sum(acc0) sum(acc1) sum(acc2)
      // sum(acc3)] partials over lanes 0-3, the high half the same over
      // lanes 4-7; one 128-bit add finishes all four sums.
      const __m256i t0 = _mm256_hadd_epi32(acc0, acc1);
      const __m256i t1 = _mm256_hadd_epi32(acc2, acc3);
      const __m256i t2 = _mm256_hadd_epi32(t0, t1);
      const __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(t2),
                                        _mm256_extracti128_si256(t2, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c + i * n + j), sum);
    }
    for (; j < n; ++j) {
      const std::int8_t* bj = bt + j * stride;
      __m256i acc = _mm256_setzero_si256();
      // One kQGemmPad (32-byte) block per iteration: two 16-byte halves,
      // each sign-extended to 16 int16 lanes and madd'ed to 8 int32 sums.
      for (std::size_t k = 0; k < stride; k += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ai + k));
        const __m256i a_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
        const __m256i a_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
        acc = fma_block(acc, a_lo, a_hi, bj + k);
      }
      c[i * n + j] = hsum_epi32(acc);
    }
  }
}

}  // namespace

QGemmFn qgemm_avx2() { return &qgemm_avx2_impl; }

}  // namespace m3dfl::gnn

#else  // !__AVX2__

namespace m3dfl::gnn {
QGemmFn qgemm_avx2() { return nullptr; }
}  // namespace m3dfl::gnn

#endif
