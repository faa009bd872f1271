//===- memory/MemFast.h - Memory fidelity tiers -----------------*- C++ -*-===//
///
/// \file
/// Fidelity tiers of the memory model (DESIGN.md §11), selected by
/// HETSIM_MEMFAST.
///
///   exact (default, also when unset) — every access walks the detailed
///     hierarchy. Goldens, fidelity checks and the benchmark run here.
///   sampled — windowed time-sampling of generator blocks: the cores
///     alternate measured and skipped windows and report an error bound.
///     Approximate; never used by goldens.
///
/// Any other value is a fatal error naming the accepted values.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_MEMFAST_H
#define HETSIM_MEMORY_MEMFAST_H

#include <cstdint>
#include <optional>

namespace hetsim {

/// Fidelity tier of the memory model. The numeric values are the
/// "memfast.mode" metric and stay fixed.
enum class MemFastMode : uint8_t {
  Exact = 1,   ///< Detailed per-access simulation (default).
  Sampled = 3, ///< Windowed time-sampling with reported error bounds.
};

/// Parses a HETSIM_MEMFAST value: null or empty (unset) and "exact" give
/// Exact, "sampled" gives Sampled; anything else gives nullopt.
std::optional<MemFastMode> parseMemFastMode(const char *Value);

/// The HETSIM_MEMFAST spelling of \p Mode ("exact" or "sampled").
const char *memFastModeName(MemFastMode Mode);

/// Resolves HETSIM_MEMFAST, or the setMemFastForTesting() override.
/// Calls fatalError on a value parseMemFastMode() rejects.
MemFastMode memFastMode();

/// Test hook: forces the tier (1 exact, 3 sampled), or re-reads the
/// environment (-1). Any other value is a fatal error.
void setMemFastForTesting(int Mode);

/// Windows skipped per measured window in sampled mode
/// (HETSIM_MEMFAST_SKIP, default 30).
unsigned memFastSampleSkip();

} // namespace hetsim

#endif // HETSIM_MEMORY_MEMFAST_H
