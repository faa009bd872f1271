//===- memory/MemFast.cpp -------------------------------------------------===//

#include "memory/MemFast.h"

#include "common/Error.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

using namespace hetsim;

static std::atomic<int> MemFastOverride{-1};

std::optional<MemFastMode> hetsim::parseMemFastMode(const char *Value) {
  if (!Value || !*Value || std::strcmp(Value, "exact") == 0)
    return MemFastMode::Exact;
  if (std::strcmp(Value, "sampled") == 0)
    return MemFastMode::Sampled;
  return std::nullopt;
}

const char *hetsim::memFastModeName(MemFastMode Mode) {
  return Mode == MemFastMode::Sampled ? "sampled" : "exact";
}

MemFastMode hetsim::memFastMode() {
  int Override = MemFastOverride.load(std::memory_order_relaxed);
  if (Override >= 0)
    return MemFastMode(Override);
  std::optional<MemFastMode> Mode =
      parseMemFastMode(std::getenv("HETSIM_MEMFAST"));
  if (!Mode)
    fatalError("HETSIM_MEMFAST must be unset, 'exact' or 'sampled'");
  return *Mode;
}

void hetsim::setMemFastForTesting(int Mode) {
  if (Mode != -1 && Mode != int(MemFastMode::Exact) &&
      Mode != int(MemFastMode::Sampled))
    fatalError("setMemFastForTesting takes -1 (environment), 1 (exact) or "
               "3 (sampled)");
  MemFastOverride.store(Mode, std::memory_order_relaxed);
}

unsigned hetsim::memFastSampleSkip() {
  static unsigned Cached = [] {
    const char *Env = std::getenv("HETSIM_MEMFAST_SKIP");
    if (!Env || !*Env)
      return 30u;
    long V = std::atol(Env);
    if (V < 1)
      V = 1;
    if (V > 10000)
      V = 10000;
    return unsigned(V);
  }();
  return Cached;
}
