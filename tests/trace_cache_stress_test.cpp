//===- tests/trace_cache_stress_test.cpp - Cache concurrency invariants ---===//
///
/// \file
/// Hammers the sharded single-flight TraceCache from many threads over a
/// fixed set of keys and asserts the PR-6 contract: the miss counter
/// equals the number of distinct keys (no duplicate generation at any
/// thread count), every request for a key observes the same buffer
/// pointer (stable pointers), and the block path hands out one recipe
/// per key. These invariants are exactly what the old per-kernel GenMutex
/// design violated under parallel sweeps.
///
//===----------------------------------------------------------------------===//

#include "memory/AddressSpaceModel.h"
#include "trace/TraceCache.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace hetsim;

namespace {

/// Builds the K-th distinct compute request (seed varies, so every key is
/// a genuinely different generated trace).
GenRequest requestFor(unsigned K) {
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 4096;
  Req.Seed = K + 1;
  return Req;
}

class TraceCacheStress : public ::testing::Test {
protected:
  void SetUp() override { TraceCache::global().clear(); }
};

TEST_F(TraceCacheStress, ExactlyOneGenerationPerKeyUnderContention) {
  constexpr unsigned NumThreads = 8;
  constexpr unsigned NumKeys = 6;
  constexpr unsigned Rounds = 25;
  const KernelDataLayout Layout = KernelDataLayout::makeLinear(
      KernelId::Reduction, region::CpuPrivateBase);

  // Every thread records the pointer it saw for every key on every round.
  std::vector<std::vector<const TraceBuffer *>> Seen(NumThreads);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Seen[T].reserve(size_t(NumKeys) * Rounds);
      // Barrier: maximize the window where all threads miss at once.
      Ready.fetch_add(1);
      while (Ready.load() != NumThreads) {
      }
      for (unsigned R = 0; R != Rounds; ++R)
        for (unsigned K = 0; K != NumKeys; ++K) {
          // Stagger key order per thread so shards are hit in every
          // interleaving, not in lockstep.
          unsigned Key = (K + T) % NumKeys;
          auto Trace = TraceCache::global().compute(KernelId::Reduction,
                                                    requestFor(Key), Layout);
          ASSERT_EQ(Trace->size(), 4096u);
          Seen[T].push_back(Trace.get());
        }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  // Single-flight: misses == generations == distinct keys, regardless of
  // how many threads raced the cold window.
  TraceCacheStats Stats = TraceCache::global().stats();
  EXPECT_EQ(Stats.Misses, NumKeys);
  EXPECT_EQ(TraceCache::global().generations(), NumKeys);
  EXPECT_EQ(Stats.lookups(),
            uint64_t(NumThreads) * NumKeys * Rounds);
  EXPECT_EQ(Stats.Hits, Stats.lookups() - NumKeys);
  EXPECT_EQ(TraceCache::global().entryCount(), size_t(NumKeys));

  // Stable pointers: all threads and rounds observed one buffer per key.
  // Thread T's J-th request was for key ((J % NumKeys) + T) % NumKeys.
  std::vector<const TraceBuffer *> Canonical(NumKeys, nullptr);
  for (unsigned T = 0; T != NumThreads; ++T) {
    ASSERT_EQ(Seen[T].size(), size_t(NumKeys) * Rounds);
    for (size_t J = 0; J != Seen[T].size(); ++J) {
      unsigned Key = unsigned((J % NumKeys) + T) % NumKeys;
      if (!Canonical[Key])
        Canonical[Key] = Seen[T][J];
      EXPECT_EQ(Seen[T][J], Canonical[Key])
          << "thread " << T << " request " << J << " key " << Key;
    }
  }
  // Distinct keys resolve to distinct buffers.
  for (unsigned A = 0; A != NumKeys; ++A)
    for (unsigned B = A + 1; B != NumKeys; ++B)
      EXPECT_NE(Canonical[A], Canonical[B]);
}

TEST_F(TraceCacheStress, BlockPathHandsOutOneRecipePerKey) {
  constexpr unsigned NumThreads = 8;
  constexpr unsigned NumKeys = 4;
  const KernelDataLayout Layout = KernelDataLayout::makeLinear(
      KernelId::Reduction, region::CpuPrivateBase);

  std::vector<std::vector<const BlockTrace *>> Seen(NumThreads);
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (Ready.load() != NumThreads) {
      }
      for (unsigned R = 0; R != 20; ++R)
        for (unsigned K = 0; K != NumKeys; ++K) {
          SharedTrace Trace = TraceCache::global().computeShared(
              KernelId::Reduction, requestFor(K), Layout, RunOptions());
          Seen[T].push_back(Trace.blocks());
        }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  // Losers of an insertion race must adopt the winner's block: per key,
  // one pointer.
  std::vector<const BlockTrace *> Canonical(NumKeys, nullptr);
  for (unsigned T = 0; T != NumThreads; ++T) {
    ASSERT_EQ(Seen[T].size(), size_t(NumKeys) * 20);
    for (size_t J = 0; J != Seen[T].size(); ++J) {
      unsigned Key = unsigned(J % NumKeys);
      ASSERT_NE(Seen[T][J], nullptr);
      if (!Canonical[Key])
        Canonical[Key] = Seen[T][J];
      EXPECT_EQ(Seen[T][J], Canonical[Key]);
    }
  }
  EXPECT_EQ(TraceCache::global().stats().Misses, NumKeys);
}

TEST_F(TraceCacheStress, SerialAndComputeKeysDoNotCollide) {
  const KernelDataLayout Layout = KernelDataLayout::makeLinear(
      KernelId::Reduction, region::CpuPrivateBase);
  GenRequest Req = requestFor(0);
  auto Compute =
      TraceCache::global().compute(KernelId::Reduction, Req, Layout);
  auto Serial = TraceCache::global().serial(KernelId::Reduction,
                                            Req.InstCount, Layout, Req.Seed);
  EXPECT_NE(Compute.get(), Serial.get());
  EXPECT_EQ(TraceCache::global().stats().Misses, 2u);
  EXPECT_EQ(TraceCache::global().generations(), 2u);
}

TEST_F(TraceCacheStress, WaitCounterOnlyGrowsOnContendedMisses) {
  const KernelDataLayout Layout = KernelDataLayout::makeLinear(
      KernelId::Reduction, region::CpuPrivateBase);
  uint64_t Before = traceCacheWaitNanos();
  auto First =
      TraceCache::global().compute(KernelId::Reduction, requestFor(0), Layout);
  // An uncontended hit takes the shared lock only; it must not charge the
  // wait counter (the telemetry that feeds lock_wait_s).
  uint64_t AfterMiss = traceCacheWaitNanos();
  auto Again =
      TraceCache::global().compute(KernelId::Reduction, requestFor(0), Layout);
  EXPECT_EQ(First.get(), Again.get());
  EXPECT_EQ(traceCacheWaitNanos(), AfterMiss);
  EXPECT_GE(AfterMiss, Before);
}

} // namespace
