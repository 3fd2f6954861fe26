#include "common/simd.h"

#include <cstdlib>

#include "obs/log.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace m3dfl::simd {

namespace {

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.sse2 = (edx >> 26) & 1;
    const bool osxsave = (ecx >> 27) & 1;
    const bool avx = (ecx >> 28) & 1;
    if (osxsave && avx) {
      // XCR0 bits 1 (SSE) and 2 (AVX): the OS context-switches YMM state.
      // Raw xgetbv (safe here: OSXSAVE was checked) — the GCC builtin
      // would require compiling this TU with -mxsave.
      unsigned lo = 0, hi = 0;
      __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      f.os_avx = (lo & 0x6) == 0x6;
    }
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = f.os_avx && ((ebx >> 5) & 1);
  }
#endif
  return f;
}

std::optional<SimdTier>& forced_slot() {
  static std::optional<SimdTier> forced;
  return forced;
}

}  // namespace

const char* tier_name(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
  }
  return "?";
}

std::optional<SimdTier> parse_tier(std::string_view s) {
  if (s == "scalar") return SimdTier::kScalar;
  if (s == "sse2") return SimdTier::kSse2;
  if (s == "avx2") return SimdTier::kAvx2;
  return std::nullopt;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

bool tier_available(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar: return true;
    case SimdTier::kSse2: return cpu_features().sse2;
    case SimdTier::kAvx2: return cpu_features().avx2;
  }
  return false;
}

SimdTier best_tier() {
  if (tier_available(SimdTier::kAvx2)) return SimdTier::kAvx2;
  if (tier_available(SimdTier::kSse2)) return SimdTier::kSse2;
  return SimdTier::kScalar;
}

void force_tier(std::optional<SimdTier> t) { forced_slot() = t; }

SimdTier resolve_tier() {
  std::optional<SimdTier> want = forced_slot();
  const char* origin = "force_tier";
  if (!want) {
    if (const char* env = std::getenv("M3DFL_SIMD")) {
      want = parse_tier(env);
      origin = "M3DFL_SIMD";
      if (!want && env[0] != '\0') {
        M3DFL_LOG_WARN("simd",
                       "ignoring unknown M3DFL_SIMD value '%s' "
                       "(want scalar|sse2|avx2)",
                       env);
      }
    }
  }
  if (!want) return best_tier();
  if (tier_available(*want)) return *want;
  const SimdTier fallback = best_tier();
  M3DFL_LOG_WARN("simd",
                 "%s=%s is not available on this host; falling back to %s",
                 origin, tier_name(*want), tier_name(fallback));
  return fallback;
}

}  // namespace m3dfl::simd
