//===- core/SweepRunner.cpp -----------------------------------------------===//

#include "core/SweepRunner.h"

#include "common/Log.h"
#include "common/ThreadPool.h"
#include "common/WallTimer.h"
#include "core/ResultStore.h"
#include "obs/Json.h"
#include "trace/ComputeBlock.h"
#include "trace/TraceCache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>

using namespace hetsim;

namespace {

/// The points one run() has simulated, searched for read-set dedup (see
/// SweepRunner). Workers add and search concurrently, so every access
/// holds the mutex.
class SimulatedPoints {
public:
  /// The index of a finished simulated point whose result \p Config on
  /// \p Kernel must reproduce: equal outside CommParams, and equal on
  /// every comm field the simulated run read.
  std::optional<size_t> find(KernelId Kernel, const SystemConfig &Config) {
    SystemConfig Probe = Config;
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const Entry &E : Entries) {
      if (E.Kernel != Kernel)
        continue;
      Probe.Comm = E.Config.Comm;
      if (Probe == E.Config && Config.Comm.agreesOn(E.Config.Comm, E.Reads)) {
        ++Hits;
        return E.Index;
      }
    }
    return std::nullopt;
  }

  /// Records that point \p Index simulated \p Config on \p Kernel and
  /// read the comm fields in \p Reads.
  void add(KernelId Kernel, const SystemConfig &Config, CommReadMask Reads,
           size_t Index) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Entries.push_back({Kernel, Config, Reads, Index});
  }

  uint64_t hits() {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Hits;
  }

private:
  struct Entry {
    KernelId Kernel;
    SystemConfig Config;
    CommReadMask Reads;
    size_t Index;
  };
  std::mutex Mutex;
  std::vector<Entry> Entries;
  uint64_t Hits = 0;
};

} // namespace

std::string SweepTelemetry::summary() const {
  char Buffer[384];
  std::snprintf(Buffer, sizeof(Buffer),
                "sweep: %llu points in %.3f s (%.1f points/s, %.3g sim-ns "
                "per wall-s, gen %.3f s / sim %.3f s / wait %.3f s, "
                "jobs=%u from %s, trace cache %.0f%% hits, %llu dedup "
                "hits)",
                static_cast<unsigned long long>(Points), WallSeconds,
                pointsPerSecond(), simNsPerWallSecond(),
                traceGenWallSeconds(), simulateSeconds(),
                lockWaitWallSeconds(), Jobs, JobsSource.c_str(),
                100.0 * cacheHitRate(),
                static_cast<unsigned long long>(DedupHits));
  return Buffer;
}

void SweepTelemetry::merge(const SweepTelemetry &Other) {
  Jobs = Other.Jobs;
  JobsSource = Other.JobsSource;
  Points += Other.Points;
  WallSeconds += Other.WallSeconds;
  SimNsTotal += Other.SimNsTotal;
  BusySeconds += Other.BusySeconds;
  TraceGenSeconds += Other.TraceGenSeconds;
  LockWaitSeconds += Other.LockWaitSeconds;
  CacheHits += Other.CacheHits;
  CacheMisses += Other.CacheMisses;
  StoreHits += Other.StoreHits;
  StoreMisses += Other.StoreMisses;
  DedupHits += Other.DedupHits;
}

SweepRunner::SweepRunner(unsigned JobCount, RunOptions O)
    : Jobs(JobCount), JobsSource("explicit"), Opts(std::move(O)) {
  if (Jobs != 0)
    return;
  Jobs = Opts.Jobs != 0 ? Opts.Jobs : ThreadPool::defaultJobs();
  JobsSource = Opts.Jobs != 0 ? "HETSIM_JOBS" : "hardware";
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &Points) {
  std::vector<RunResult> Results(Points.size());
  Metrics.assign(Points.size(), MetricsSnapshot());

  ResultStore Store(Opts.ResultStoreDir);
  SimulatedPoints Done;

  // Per-worker phase counters. Worker ids from parallelForWorkers are
  // stable in [0, min(Points, Jobs)), so each worker owns one slot and
  // no atomics are needed.
  struct WorkerCounters {
    uint64_t BusyNs = 0;
    uint64_t GenNs = 0;
    uint64_t WaitNs = 0;
  };
  std::vector<WorkerCounters> Workers(
      std::max<size_t>(1, std::min(Points.size(), size_t(Jobs))));

  TraceCacheStats Before = TraceCache::global().stats();
  WallTimer Timer;
  {
    ThreadPool Pool(Jobs);
    Pool.parallelForWorkers(Points.size(), [&](size_t I, unsigned Worker) {
      const SweepPoint &Point = Points[I];
      SystemConfig Config = Point.Config;
      // applyOverrides rebuilds CommParams wholesale from the store, so
      // an empty store would reset comm.* values baked into Point.Config
      // by forCaseStudy(Study, Overrides). Only apply a real store.
      if (Point.Overrides.size() != 0)
        Config.applyOverrides(Point.Overrides);

      // Diff this thread's own gen / cache-wait clocks around the point
      // (a worker thread only ever runs one point at a time, so the
      // diffs attribute exactly this point's work to this worker).
      auto BusyStart = std::chrono::steady_clock::now();
      uint64_t GenStart = threadTraceGenNanos();
      uint64_t WaitStart = threadTraceCacheWaitNanos();

      // With a store, the key needs the lowered program; a stored entry
      // is served before the dedup table is consulted, and a copied
      // point is still saved under its own key so --resume finds it.
      std::optional<LoweredProgram> Program;
      std::optional<ResultStore::Key> Key;
      ResultStore::Entry Stored;
      if (Store.enabled()) {
        Program = lowerKernel(Point.Kernel, Config, Opts);
        Key = ResultStore::keyFor(Config, *Program);
      }
      if (Key && Store.load(*Key, Stored)) {
        Results[I] = std::move(Stored.Result);
        Metrics[I] = std::move(Stored.Metrics);
      } else {
        if (std::optional<size_t> Twin = Done.find(Point.Kernel, Config)) {
          Results[I] = Results[*Twin];
          Metrics[I] = Metrics[*Twin];
        } else {
          HeteroSimulator Simulator(Config, Opts);
          Results[I] = Program ? Simulator.runLowered(*Program)
                               : Simulator.run(Point.Kernel);
          // Snapshot while the simulator (and its memory system) is
          // alive; each worker writes only its own slot.
          Metrics[I] = Simulator.collectMetrics(Results[I]);
          Done.add(Point.Kernel, Config, Simulator.commReads(), I);
        }
        if (Key)
          Store.save(*Key, {Results[I], Metrics[I]});
      }

      WorkerCounters &C = Workers[Worker];
      C.BusyNs += uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - BusyStart)
                               .count());
      C.GenNs += threadTraceGenNanos() - GenStart;
      C.WaitNs += threadTraceCacheWaitNanos() - WaitStart;
    });
  }

  if (!Opts.MetricsJsonPath.empty() &&
      !writeTextFile(Opts.MetricsJsonPath,
                     renderSweepMetricsJson(Points, Metrics) + "\n"))
    HETSIM_WARN("cannot write sweep metrics to %s",
                Opts.MetricsJsonPath.c_str());

  Telemetry = SweepTelemetry();
  Telemetry.Jobs = Jobs;
  Telemetry.JobsSource = JobsSource;
  Telemetry.Points = Points.size();
  Telemetry.WallSeconds = Timer.elapsedSeconds();
  for (const WorkerCounters &C : Workers) {
    Telemetry.BusySeconds += double(C.BusyNs) * 1e-9;
    Telemetry.TraceGenSeconds += double(C.GenNs) * 1e-9;
    Telemetry.LockWaitSeconds += double(C.WaitNs) * 1e-9;
  }
  Telemetry.StoreHits = Store.hits();
  Telemetry.StoreMisses = Store.misses();
  Telemetry.DedupHits = Done.hits();
  for (const RunResult &Result : Results)
    Telemetry.SimNsTotal += Result.Time.totalNs();
  TraceCacheStats After = TraceCache::global().stats();
  Telemetry.CacheHits = After.Hits - Before.Hits;
  Telemetry.CacheMisses = After.Misses - Before.Misses;
  // Mirror the process-lifetime cache counters into the stats registry so
  // observability consumers see them without knowing about TraceCache.
  TraceCache::global().publishStats(processStats());
  processStats().counterRef("sweep.dedup_hits") += Telemetry.DedupHits;
  return Results;
}

std::string
hetsim::renderSweepMetricsJson(const std::vector<SweepPoint> &Points,
                               const std::vector<MetricsSnapshot> &Metrics) {
  JsonWriter W;
  W.beginObject();
  W.value("schema", "hetsim-sweep-metrics-v1");
  W.beginArray("points");
  for (size_t I = 0; I != Metrics.size(); ++I) {
    W.beginObject();
    if (I < Points.size()) {
      W.value("system", Points[I].Config.Name);
      W.value("kernel", kernelName(Points[I].Kernel));
    }
    appendMetricsObject(W, "metrics", Metrics[I]);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

bool hetsim::appendBenchTiming(const std::string &Bench,
                               const SweepTelemetry &T,
                               const RunOptions &Opts) {
  std::string Path = Opts.TimingJsonPath.empty() ? "out/bench_timing.json"
                                                 : Opts.TimingJsonPath;

  std::error_code Ec;
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty())
    std::filesystem::create_directories(Parent, Ec);

  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File) {
    HETSIM_WARN("cannot append bench timing to %s", Path.c_str());
    return false;
  }
  // One JSON object per line (JSON-lines), fixed key order for easy
  // grepping from shell scripts.
  std::fprintf(File,
               "{\"bench\":\"%s\",\"points\":%llu,\"jobs\":%u,"
               "\"wall_s\":%.6f,\"points_per_s\":%.3f,"
               "\"sim_ns_per_wall_s\":%.1f,\"cache_hits\":%llu,"
               "\"cache_misses\":%llu,\"cache_hit_rate\":%.4f,"
               "\"jobs_source\":\"%s\",\"trace_gen_s\":%.6f,"
               "\"simulate_s\":%.6f,\"lock_wait_s\":%.6f,"
               "\"store_hits\":%llu,\"store_misses\":%llu,"
               "\"dedup_hits\":%llu}\n",
               Bench.c_str(), static_cast<unsigned long long>(T.Points),
               T.Jobs, T.WallSeconds, T.pointsPerSecond(),
               T.simNsPerWallSecond(),
               static_cast<unsigned long long>(T.CacheHits),
               static_cast<unsigned long long>(T.CacheMisses),
               T.cacheHitRate(), T.JobsSource.c_str(),
               T.traceGenWallSeconds(), T.simulateSeconds(),
               T.lockWaitWallSeconds(),
               static_cast<unsigned long long>(T.StoreHits),
               static_cast<unsigned long long>(T.StoreMisses),
               static_cast<unsigned long long>(T.DedupHits));
  std::fclose(File);
  return true;
}
