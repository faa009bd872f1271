//===- trace/TraceCache.cpp -----------------------------------------------===//

#include "trace/TraceCache.h"

#include <chrono>
#include <mutex>

using namespace hetsim;

namespace {

/// FNV-1a over arbitrary bytes.
uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Bytes; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ull;
  }
  return Hash;
}

uint64_t fnv1aU64(uint64_t Hash, uint64_t Value) {
  return fnv1a(Hash, &Value, sizeof(Value));
}

std::atomic<uint64_t> CacheWaitNanos{0};
thread_local uint64_t TlCacheWaitNanos = 0;

/// RAII accumulator for traceCacheWaitNanos(): times one blocking stretch
/// (future wait or exclusive-lock acquisition) on the cold paths only —
/// the shared-lock hit path is deliberately untimed.
class WaitScope {
public:
  WaitScope() : Start(std::chrono::steady_clock::now()) {}
  ~WaitScope() {
    auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    CacheWaitNanos.fetch_add(uint64_t(Nanos), std::memory_order_relaxed);
    TlCacheWaitNanos += uint64_t(Nanos);
  }
  WaitScope(const WaitScope &) = delete;
  WaitScope &operator=(const WaitScope &) = delete;

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace

uint64_t hetsim::traceCacheWaitNanos() {
  return CacheWaitNanos.load(std::memory_order_relaxed);
}

uint64_t hetsim::threadTraceCacheWaitNanos() { return TlCacheWaitNanos; }

size_t TraceCache::KeyHash::operator()(const Key &K) const {
  uint64_t Hash = 14695981039346656037ull;
  Hash = fnv1aU64(Hash, static_cast<uint64_t>(K.Kernel));
  Hash = fnv1aU64(Hash, K.Kind);
  Hash = fnv1aU64(Hash, K.Split);
  Hash = fnv1aU64(Hash, K.InstCount);
  Hash = fnv1aU64(Hash, K.Seed);
  Hash = fnv1aU64(Hash, K.LayoutHash);
  return static_cast<size_t>(Hash);
}

TraceCache &TraceCache::global() {
  static TraceCache Instance;
  return Instance;
}

TraceCache::Shard &TraceCache::shardFor(const Key &K, size_t &HashOut) {
  HashOut = KeyHash()(K);
  static_assert((NumShards & (NumShards - 1)) == 0,
                "shard selection needs a power of two");
  return Shards[(HashOut >> 60) & (NumShards - 1)];
}

TraceCache::TracePtr
TraceCache::getOrGenerate(const Key &K,
                          const std::function<TraceBuffer()> &Generate) {
  size_t Hash;
  Shard &S = shardFor(K, Hash);

  // Hot path: a shared lock on this key's shard only.
  std::shared_future<TracePtr> Flight;
  {
    std::shared_lock<std::shared_mutex> Read(S.Mutex);
    auto It = S.Map.find(K);
    if (It != S.Map.end())
      Flight = It->second;
  }
  if (Flight.valid()) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    if (Flight.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      WaitScope Wait;
      return Flight.get();
    }
    return Flight.get();
  }

  // Miss: install a single-flight slot for this key, or adopt the slot a
  // concurrent requester installed first. Only the installer generates.
  std::promise<TracePtr> Mine;
  bool Installed = false;
  {
    WaitScope Wait; // Exclusive-lock acquisition can block behind peers.
    std::unique_lock<std::shared_mutex> Write(S.Mutex);
    auto [It, Inserted] = S.Map.try_emplace(K);
    if (Inserted) {
      It->second = Mine.get_future().share();
      Installed = true;
    }
    Flight = It->second;
  }
  if (!Installed) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    WaitScope Wait;
    return Flight.get();
  }

  try {
    auto Trace = std::make_shared<const TraceBuffer>(Generate());
    Misses.fetch_add(1, std::memory_order_relaxed);
    Generations.fetch_add(1, std::memory_order_relaxed);
    Mine.set_value(Trace);
    return Trace;
  } catch (...) {
    // Failed generation must not wedge the key: drop the slot so a later
    // request retries, and propagate the error to current waiters.
    {
      std::unique_lock<std::shared_mutex> Write(S.Mutex);
      S.Map.erase(K);
    }
    Mine.set_exception(std::current_exception());
    throw;
  }
}

SharedTrace
TraceCache::getOrMakeBlock(const Key &K,
                           const std::function<BlockPtr()> &Make) {
  size_t Hash;
  Shard &S = shardFor(K, Hash);
  {
    std::shared_lock<std::shared_mutex> Read(S.Mutex);
    auto It = S.BlockMap.find(K);
    if (It != S.BlockMap.end()) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      return SharedTrace(It->second);
    }
  }
  // Recipe construction is a cheap layout copy; build outside any lock
  // and let the first inserter win. Losers adopt the winner's block, so
  // the pointer handed out for a key is stable.
  BlockPtr Block = Make();
  WaitScope Wait;
  std::unique_lock<std::shared_mutex> Write(S.Mutex);
  auto [It, Inserted] = S.BlockMap.emplace(K, std::move(Block));
  if (Inserted) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    // Cached blocks are expanded once per sweep point that shares them:
    // let the first expansion tee its output so the rest are zero-copy.
    It->second->enableExpansionReuse();
  } else {
    Hits.fetch_add(1, std::memory_order_relaxed);
  }
  return SharedTrace(It->second);
}

std::shared_ptr<const TraceBuffer>
TraceCache::compute(KernelId Kernel, const GenRequest &Req,
                    const KernelDataLayout &Layout) {
  const KernelTraceGenerator &Generator =
      KernelTraceGenerator::forKernel(Kernel);
  Key K;
  K.Kernel = Kernel;
  K.Kind = Req.Pu == PuKind::Cpu ? 0 : 1;
  K.Split = static_cast<uint8_t>(Req.Split);
  K.InstCount = Req.InstCount;
  K.Seed = Req.Seed;
  K.LayoutHash = Layout.fingerprint();
  return getOrGenerate(K, [&] {
    return Generator.generateCompute(Req, Layout);
  });
}

std::shared_ptr<const TraceBuffer>
TraceCache::serial(KernelId Kernel, uint64_t InstCount,
                   const KernelDataLayout &Layout, uint64_t Seed) {
  const KernelTraceGenerator &Generator =
      KernelTraceGenerator::forKernel(Kernel);
  Key K;
  K.Kernel = Kernel;
  K.Kind = 2;
  K.Split = 0;
  K.InstCount = InstCount;
  K.Seed = Seed;
  K.LayoutHash = Layout.fingerprint();
  return getOrGenerate(K, [&] {
    return Generator.generateSerial(InstCount, Layout, Seed);
  });
}

SharedTrace TraceCache::computeShared(KernelId Kernel, const GenRequest &Req,
                                      const KernelDataLayout &Layout,
                                      const RunOptions &Opts) {
  if (Opts.MaterializedReference)
    return SharedTrace(compute(Kernel, Req, Layout));
  if (!Opts.TraceCache)
    return SharedTrace(std::make_shared<const BlockTrace>(Kernel, Req,
                                                          Layout));
  Key K;
  K.Kernel = Kernel;
  K.Kind = Req.Pu == PuKind::Cpu ? 0 : 1;
  K.Split = static_cast<uint8_t>(Req.Split);
  K.InstCount = Req.InstCount;
  K.Seed = Req.Seed;
  K.LayoutHash = Layout.fingerprint();
  return getOrMakeBlock(K, [&] {
    return std::make_shared<const BlockTrace>(Kernel, Req, Layout);
  });
}

SharedTrace TraceCache::serialShared(KernelId Kernel, uint64_t InstCount,
                                     const KernelDataLayout &Layout,
                                     uint64_t Seed, const RunOptions &Opts) {
  if (Opts.MaterializedReference)
    return SharedTrace(serial(Kernel, InstCount, Layout, Seed));
  if (!Opts.TraceCache)
    return SharedTrace(
        std::make_shared<const BlockTrace>(Kernel, InstCount, Seed, Layout));
  Key K;
  K.Kernel = Kernel;
  K.Kind = 2;
  K.Split = 0;
  K.InstCount = InstCount;
  K.Seed = Seed;
  K.LayoutHash = Layout.fingerprint();
  return getOrMakeBlock(K, [&] {
    return std::make_shared<const BlockTrace>(Kernel, InstCount, Seed,
                                              Layout);
  });
}

TraceCacheStats TraceCache::stats() const {
  TraceCacheStats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  return S;
}

uint64_t TraceCache::generations() const {
  return Generations.load(std::memory_order_relaxed);
}

void TraceCache::publishStats(StatRegistry &Registry) const {
  Registry.counterRef("trace_cache.hits") =
      Hits.load(std::memory_order_relaxed);
  Registry.counterRef("trace_cache.misses") =
      Misses.load(std::memory_order_relaxed);
  Registry.counterRef("trace_cache.wait_ns") = traceCacheWaitNanos();
}

void TraceCache::clear() {
  for (Shard &S : Shards) {
    std::unique_lock<std::shared_mutex> Write(S.Mutex);
    S.Map.clear();
    S.BlockMap.clear();
  }
  Hits.store(0, std::memory_order_relaxed);
  Misses.store(0, std::memory_order_relaxed);
  Generations.store(0, std::memory_order_relaxed);
}

size_t TraceCache::entryCount() const {
  size_t Count = 0;
  for (const Shard &S : Shards) {
    std::shared_lock<std::shared_mutex> Read(S.Mutex);
    Count += S.Map.size() + S.BlockMap.size();
  }
  return Count;
}
