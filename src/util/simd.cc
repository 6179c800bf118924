#include "src/util/simd.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace selest {

#if defined(__x86_64__)
namespace simd_avx2 {
const SimdOps* GetOps();
}
namespace simd_avx512 {
const SimdOps* GetOps();
}
#endif

namespace {

// Tier override installed by ScopedSimdTier; -1 = none. A relaxed atomic
// is enough: the contract forbids flipping tiers while a build is in
// flight, so this only has to be data-race-free, not ordering anything.
std::atomic<int> g_tier_override{-1};

bool HostSupports(SimdTier tier) {
#if defined(__x86_64__)
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdTier::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return tier == SimdTier::kScalar;
#endif
}

// Best host tier capped by the SELEST_SIMD environment variable
// ("scalar" | "avx2" | "avx512"); unknown values are ignored. Detected
// once — changing the variable mid-process has no effect.
SimdTier DetectBaseTier() {
  SimdTier best = SimdTier::kScalar;
  if (HostSupports(SimdTier::kAvx2)) best = SimdTier::kAvx2;
  if (HostSupports(SimdTier::kAvx512)) best = SimdTier::kAvx512;
  if (const char* cap = std::getenv("SELEST_SIMD")) {
    if (std::strcmp(cap, "scalar") == 0) {
      best = SimdTier::kScalar;
    } else if (std::strcmp(cap, "avx2") == 0 && best > SimdTier::kAvx2) {
      best = SimdTier::kAvx2;
    } else if (std::strcmp(cap, "avx512") == 0) {
      // Already the ceiling; nothing to cap.
    }
  }
  return best;
}

SimdTier BaseTier() {
  static const SimdTier tier = DetectBaseTier();
  return tier;
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdTierSupported(SimdTier tier) { return HostSupports(tier); }

SimdTier ActiveSimdTier() {
  const int override_tier = g_tier_override.load(std::memory_order_relaxed);
  if (override_tier >= 0) return static_cast<SimdTier>(override_tier);
  return BaseTier();
}

const SimdOps* SimdOpsForTier(SimdTier tier) {
  if (!HostSupports(tier)) return nullptr;
#if defined(__x86_64__)
  switch (tier) {
    case SimdTier::kScalar:
      return nullptr;
    case SimdTier::kAvx2:
      return simd_avx2::GetOps();
    case SimdTier::kAvx512:
      return simd_avx512::GetOps();
  }
#endif
  return nullptr;
}

const SimdOps* ActiveSimdOps() { return SimdOpsForTier(ActiveSimdTier()); }

ScopedSimdTier::ScopedSimdTier(SimdTier tier) {
  assert(SimdTierSupported(tier));
  previous_ = g_tier_override.exchange(static_cast<int>(tier),
                                       std::memory_order_relaxed);
}

ScopedSimdTier::~ScopedSimdTier() {
  g_tier_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace selest
