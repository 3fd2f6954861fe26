// Scalar int8 GEMM — the portable reference every SIMD tier must match
// bit-for-bit (tests/quant_test.cpp and tests/gnn_test.cpp force each tier
// and compare). Also the dispatch fallback and the resolver.

#include "gnn/qkernels.h"

namespace m3dfl::gnn {

namespace {

void qgemm_scalar_impl(const std::int8_t* a, const std::int8_t* bt,
                       std::int32_t* c, std::size_t m, std::size_t n,
                       std::size_t stride) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* __restrict ai = a + i * stride;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t* __restrict bj = bt + j * stride;
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < stride; ++k) {
        acc += static_cast<std::int32_t>(ai[k]) *
               static_cast<std::int32_t>(bj[k]);
      }
      c[i * n + j] = acc;
    }
  }
}

}  // namespace

QGemmFn qgemm_scalar() { return &qgemm_scalar_impl; }

QGemmFn active_qgemm() {
  switch (active_qgemm_tier()) {
    case simd::SimdTier::kAvx2:
      if (QGemmFn fn = qgemm_avx2()) return fn;
      break;
    case simd::SimdTier::kSse2:
      if (QGemmFn fn = qgemm_sse2()) return fn;
      break;
    case simd::SimdTier::kScalar:
      break;
  }
  return qgemm_scalar();
}

simd::SimdTier active_qgemm_tier() {
  return simd::resolve_tier();
}

}  // namespace m3dfl::gnn
