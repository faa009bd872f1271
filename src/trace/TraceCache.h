//===- trace/TraceCache.h - Keyed cache of generated traces -----*- C++ -*-===//
///
/// \file
/// Generated kernel traces are deterministic functions of (kernel, PU,
/// instruction count, seed, work split, data layout), but the lowering
/// used to regenerate them inside every run. This cache keys traces by
/// those inputs and hands out shared_ptr<const TraceBuffer> handles, so N
/// sweep points over the same kernel share one immutable buffer across
/// threads.
///
/// Concurrency design (PR 6): the single shared_mutex map plus per-kernel
/// generation locks of PR 1 serialized *distinct* keys of the same kernel
/// and made every hot lookup touch one contended lock word. The cache is
/// now striped into NumShards independent shards (key hash selects the
/// shard, so unrelated lookups never share a lock), and generation is
/// single-flight *per key*: a miss installs a shared_future slot and
/// generates outside any lock, so one thread generates while concurrent
/// requesters of that key wait on the future — requesters of every other
/// key proceed untouched. Consequently the miss counter equals the number
/// of distinct keys ever requested, at any job count. Time spent blocked
/// on another thread's in-flight generation (plus the miss-path exclusive
/// lock) is accumulated in traceCacheWaitNanos() for sweep telemetry.
///
/// computeShared / serialShared hand out run-length BlockTrace handles
/// instead (see trace/ComputeBlock.h): a cache entry is then a ~200-byte
/// recipe rather than a multi-MB record vector, and cores expand it
/// window by window. RunOptions::TraceCache = false (HETSIM_TRACE_CACHE=0)
/// bypasses the cache for them: every request gets a fresh recipe,
/// expanded from scratch — kept for perf bisection. The materialized
/// reference path (RunOptions::MaterializedReference) always caches.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_TRACE_TRACECACHE_H
#define HETSIM_TRACE_TRACECACHE_H

#include "common/RunOptions.h"
#include "common/Stats.h"
#include "trace/ComputeBlock.h"
#include "trace/KernelTraceGenerator.h"

#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

namespace hetsim {

/// Process-wide nanoseconds threads spent blocked inside the trace cache:
/// waiting for another thread's single-flight generation of the same key,
/// or acquiring a shard's exclusive lock on the miss path. Summed across
/// threads (wall time per waiting thread, so it can exceed elapsed time).
uint64_t traceCacheWaitNanos();

/// The calling thread's share of traceCacheWaitNanos().
uint64_t threadTraceCacheWaitNanos();

/// Cache statistics snapshot.
struct TraceCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  uint64_t lookups() const { return Hits + Misses; }
  double hitRate() const {
    uint64_t Total = lookups();
    return Total == 0 ? 0.0 : double(Hits) / double(Total);
  }
};

/// A process-wide, thread-safe cache of generated traces.
class TraceCache {
public:
  /// Shard count. Power of two; key hashes select shards by their top
  /// bits (the maps consume the low bits), so striping stays uniform.
  static constexpr unsigned NumShards = 16;

  /// The process-wide instance every lowering goes through.
  static TraceCache &global();

  /// Cached equivalent of KernelTraceGenerator::generateCompute.
  std::shared_ptr<const TraceBuffer>
  compute(KernelId Kernel, const GenRequest &Req,
          const KernelDataLayout &Layout);

  /// Cached equivalent of KernelTraceGenerator::generateSerial.
  std::shared_ptr<const TraceBuffer> serial(KernelId Kernel,
                                            uint64_t InstCount,
                                            const KernelDataLayout &Layout,
                                            uint64_t Seed);

  /// Like compute()/serial(), but returns a SharedTrace that wraps a
  /// run-length BlockTrace, or the materialized buffer when \p Opts asks
  /// for the reference path. \p Opts.TraceCache = false bypasses the
  /// cache for blocks.
  SharedTrace computeShared(KernelId Kernel, const GenRequest &Req,
                            const KernelDataLayout &Layout,
                            const RunOptions &Opts);
  SharedTrace serialShared(KernelId Kernel, uint64_t InstCount,
                           const KernelDataLayout &Layout, uint64_t Seed,
                           const RunOptions &Opts);

  /// Snapshot of the hit/miss counters.
  TraceCacheStats stats() const;

  /// Number of times a generator actually ran on behalf of the cache.
  /// With single-flight generation this equals the number of distinct
  /// materialized-trace keys ever requested — the stress test's "no
  /// duplicate generation" invariant.
  uint64_t generations() const;

  /// Publishes the counters into \p Registry as "trace_cache.hits" /
  /// "trace_cache.misses" / "trace_cache.wait_ns" (absolute values,
  /// idempotent).
  void publishStats(StatRegistry &Registry) const;

  /// Drops every cached trace and resets the counters (tests).
  void clear();

  /// Number of distinct traces currently cached.
  size_t entryCount() const;

private:
  TraceCache() = default;

  /// Cache key: every input the generators read. The layout is folded to
  /// a fingerprint over its (name, base, bytes, dir) segments.
  struct Key {
    KernelId Kernel;
    uint8_t Kind;  ///< 0 = CPU compute, 1 = GPU compute, 2 = serial.
    uint8_t Split; ///< WorkSplit (0 for serial).
    uint64_t InstCount;
    uint64_t Seed;
    uint64_t LayoutHash;

    bool operator==(const Key &Other) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key &K) const;
  };

  using TracePtr = std::shared_ptr<const TraceBuffer>;
  using BlockPtr = std::shared_ptr<const BlockTrace>;

  /// One independent stripe of the cache. Materialized entries are
  /// shared_future slots so generation can be single-flight per key;
  /// block entries hold the (cheap to construct) recipe directly.
  struct Shard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<Key, std::shared_future<TracePtr>, KeyHash> Map;
    std::unordered_map<Key, BlockPtr, KeyHash> BlockMap;
  };

  Shard &shardFor(const Key &K, size_t &HashOut);

  TracePtr getOrGenerate(const Key &K,
                         const std::function<TraceBuffer()> &Generate);

  /// Looks up / inserts a block recipe. \p Make runs outside the shard
  /// lock; losers of a construction race adopt the winner's block, so
  /// pointers per key are stable.
  SharedTrace getOrMakeBlock(const Key &K,
                             const std::function<BlockPtr()> &Make);

  std::array<Shard, NumShards> Shards;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Generations{0};
};

} // namespace hetsim

#endif // HETSIM_TRACE_TRACECACHE_H
