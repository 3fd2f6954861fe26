#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace m3dfl::simd {

/// SIMD kernel tiers of the int8 GEMM (gnn/qkernels.h), in ascending
/// width. Every tier computes bit-identical results; wider tiers just move
/// more lanes per instruction (SSE2: 128-bit vectors, AVX2: 256-bit).
enum class SimdTier : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

const char* tier_name(SimdTier t);
std::optional<SimdTier> parse_tier(std::string_view s);

/// CPU capabilities relevant to kernel dispatch, probed once via cpuid
/// (x86) and cached. On non-x86 hosts everything beyond scalar is false.
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  bool os_avx = false;  ///< OS saves YMM state (OSXSAVE + XCR0[2:1]).
};

const CpuFeatures& cpu_features();

/// True if this host can run the tier (scalar always; wider tiers per
/// cpuid).
bool tier_available(SimdTier t);

/// Widest available tier on this host.
SimdTier best_tier();

/// Active tier under the resolution order
///   force_tier() override > M3DFL_SIMD env var > best_tier().
/// A forced/env tier the host cannot run falls back to best_tier() with a
/// one-line stderr notice instead of faulting on an illegal instruction.
SimdTier resolve_tier();

/// Programmatic override (tests pin each tier with it). std::nullopt
/// clears it.
void force_tier(std::optional<SimdTier> t);

}  // namespace m3dfl::simd
