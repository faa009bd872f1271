//===- core/ResultStore.h - Content-addressed sweep results -----*- C++ -*-===//
///
/// \file
/// An on-disk cache of finished sweep points, keyed by *content*: the
/// FNV-1a fingerprint of the fully resolved SystemConfig, the fingerprint
/// of every trace the lowered program will execute, and a code-version
/// constant that is bumped whenever simulator semantics change. Two sweep
/// points with the same key are guaranteed to produce the same RunResult
/// (the simulator is deterministic in exactly those inputs), so a stored
/// entry can be served in place of a simulation.
///
/// Resumability falls out of the keying: an interrupted sweep has already
/// persisted every completed point, so re-running the same sweep command
/// loads those and simulates only the remainder — and because stored
/// doubles round-trip exactly (hex-float serialization), the resumed
/// output is byte-identical to an uninterrupted run.
///
/// Entries are written atomically (temp file + rename) so a killed writer
/// can never leave a half-entry that a resume would trust; a corrupt or
/// truncated file is treated as a miss and overwritten.
///
/// Enabled by RunOptions::ResultStoreDir, set from HETSIM_RESULT_STORE=<dir>
/// or `hetsim sweep --resume [--store <dir>]`.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_RESULTSTORE_H
#define HETSIM_CORE_RESULTSTORE_H

#include "core/HeteroSimulator.h"
#include "core/Lowering.h"
#include "obs/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace hetsim {

/// Folded into every key; bump on any change to simulator semantics so a
/// new binary can never serve results computed by an old model.
constexpr uint64_t ResultStoreCodeVersion = 2;

/// Content fingerprint of a fully resolved system configuration (every
/// field the simulator reads, nested configs included).
uint64_t hashSystemConfig(const SystemConfig &Config);

/// Content fingerprint of every trace \p Program executes: block-backed
/// traces hash their recipes (generator inputs + layout fingerprint),
/// materialized traces hash their record streams field by field, and
/// non-trace step attributes (kind, bytes, direction, objects) are folded
/// in so two programs with equal traces but different communication steps
/// never collide.
uint64_t hashLoweredTraces(const LoweredProgram &Program);

/// The content-addressed on-disk result cache.
class ResultStore {
public:
  /// A fully derived key. Also the on-disk identity: entries live at
  /// <root>/<config-hash>-<trace-hash>-<version>.result.
  struct Key {
    uint64_t ConfigHash = 0;
    uint64_t TraceHash = 0;
    uint64_t CodeVersion = ResultStoreCodeVersion;
  };

  /// Everything the sweep runner needs to skip a point.
  struct Entry {
    RunResult Result;
    MetricsSnapshot Metrics;
  };

  /// A store rooted at \p Dir (created lazily on first save). An empty
  /// \p Dir disables the store: load() always misses, save() is a no-op.
  explicit ResultStore(std::string Dir);

  bool enabled() const { return !Root.empty(); }
  const std::string &root() const { return Root; }

  /// Derives the key for one sweep point. \p Config must be the final,
  /// override-applied configuration \p Program was lowered for.
  static Key keyFor(const SystemConfig &Config, const LoweredProgram &Program);

  /// Loads the entry for \p K. Returns false on miss or on a corrupt /
  /// truncated / version-mismatched file (which a later save overwrites).
  bool load(const Key &K, Entry &Out) const;

  /// Persists \p E under \p K via write-to-temp + atomic rename, so
  /// readers (including a concurrent or future resume) only ever see
  /// complete entries. Returns false on I/O failure.
  bool save(const Key &K, const Entry &E) const;

  /// Counters since construction (telemetry).
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t stores() const { return Stores.load(std::memory_order_relaxed); }

private:
  std::string entryPath(const Key &K) const;

  std::string Root;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Misses{0};
  mutable std::atomic<uint64_t> Stores{0};
};

} // namespace hetsim

#endif // HETSIM_CORE_RESULTSTORE_H
