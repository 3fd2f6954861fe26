#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace m3dfl::gnn {

/// int8 GEMM with exact int32 accumulation:
///
///   c[i*n + j] = sum_k a[i*stride + k] * bt[j*stride + k]
///
/// `a` is the quantized activation block (m rows), `bt` the pre-transposed
/// quantized weight block (n rows — one row per output channel), both with
/// the same row stride. Rows are padded to kQGemmPad with zero bytes, so
/// kernels consume whole vectors with no tail loop; zero pads contribute
/// nothing to the products.
///
/// The accumulation is exact, not saturating: |q| <= 127 everywhere, so a
/// row of kMaxDim (65536) products is bounded by 127*127*65536 < 2^31 and
/// an int32 accumulator cannot overflow for any loadable model. Integer
/// addition is associative, so every tier — whatever its lane count or
/// summation order — produces the same int32, which is what makes the
/// quantized forward bit-identical across scalar/SSE2/AVX2 (saturation
/// happens only at the scalar requantization clamp, shared by all tiers).
///
/// Each tier lives in its own translation unit (the AVX2 one is compiled
/// with -mavx2); the function-pointer boundary keeps wide instructions out
/// of code that runs before the cpuid check. Accessors return nullptr when
/// the tier is not compiled in on this architecture.
using QGemmFn = void (*)(const std::int8_t* a, const std::int8_t* bt,
                         std::int32_t* c, std::size_t m, std::size_t n,
                         std::size_t stride);

/// Row padding unit of quantized buffers: one AVX2 vector of int8 lanes.
/// SSE2 consumes it as two vectors, scalar as 32 MACs.
inline constexpr std::size_t kQGemmPad = 32;

QGemmFn qgemm_scalar();
QGemmFn qgemm_sse2();
QGemmFn qgemm_avx2();

/// Kernel for the active tier under simd::resolve_tier()'s order
/// (force_tier() > M3DFL_SIMD > best_tier()).
QGemmFn active_qgemm();

/// The tier active_qgemm() resolved to (for /statusz and tests).
simd::SimdTier active_qgemm_tier();

}  // namespace m3dfl::gnn
