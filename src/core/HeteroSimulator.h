//===- core/HeteroSimulator.h - The co-simulation driver --------*- C++ -*-===//
///
/// \file
/// Drives one lowered program on one system configuration: the CPU core
/// executes serial segments, both cores execute parallel rounds, and the
/// configured communication fabric executes transfers. Execution time is
/// split into the paper's three categories (Section V-A): sequential,
/// parallel, and communication — where communication is everything a
/// mechanism adds to the makespan (synchronous copy time, async-copy
/// stalls, ownership actions, and first-touch page-fault handling).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_HETEROSIMULATOR_H
#define HETSIM_CORE_HETEROSIMULATOR_H

#include "comm/CommFabric.h"
#include "core/Lowering.h"
#include "obs/Metrics.h"
#include "obs/Phase.h"
#include "obs/TraceEvents.h"

#include <memory>

namespace hetsim {

/// The three-way time split of Figure 5, in nanoseconds.
struct TimeBreakdown {
  double SequentialNs = 0;
  double ParallelNs = 0;
  double CommunicationNs = 0;

  bool operator==(const TimeBreakdown &) const = default;

  double totalNs() const {
    return SequentialNs + ParallelNs + CommunicationNs;
  }
  double commFraction() const {
    double Total = totalNs();
    return Total == 0 ? 0.0 : CommunicationNs / Total;
  }
};

/// Everything one run produces.
struct RunResult {
  TimeBreakdown Time;
  /// Finer-grained attribution of the same wall-clock: phase sums
  /// reconcile exactly with Time (compute == sequential+parallel,
  /// communication == the rest).
  PhaseBreakdown Phases;
  SegmentResult CpuTotal;     ///< Aggregated over CPU segments.
  SegmentResult GpuTotal;     ///< Aggregated over GPU segments.
  uint64_t TransferredBytes = 0;
  uint64_t TransferCount = 0;
  uint64_t PageFaults = 0;    ///< Batched first-touch faults charged.
  uint64_t OwnershipActions = 0;
  double PushNs = 0;          ///< Explicit-locality push time (in comm).
  unsigned CommSourceLines = 0; ///< Table V cell for this (kernel, model).

  bool operator==(const RunResult &) const = default;
};

/// One simulated system instance. Construct once per configuration; each
/// run() builds a fresh memory system so runs are independent. \p Opts
/// supplies the trace source and the trace-event directory.
class HeteroSimulator {
public:
  explicit HeteroSimulator(const SystemConfig &Config, RunOptions Opts = {});
  ~HeteroSimulator();

  /// Lowers and runs \p Kernel.
  RunResult run(KernelId Kernel);

  /// Runs an already-lowered program (for tests and custom programs).
  RunResult runLowered(const LoweredProgram &Program);

  const SystemConfig &config() const { return Config; }

  /// The memory system of the most recent run (for post-run inspection).
  MemorySystem &memory();

  /// The communication parameters this simulator's runs have read since
  /// construction (CommParams::bit per field). Every read of the
  /// configuration's CommParams, by the simulator or its fabric, goes
  /// through CommParams::get(), so the mask is complete by construction.
  CommReadMask commReads() const { return Config.Comm.readMask(); }

  /// The event timeline of the most recent run. Populated on every run;
  /// written to `<TraceEventsDir>/<system>_<kernel>.trace.json` when the
  /// options name a directory.
  const TraceEventLog &trace() const { return Trace; }

  /// Flattens \p Result plus the last run's memory-system state into a
  /// metrics snapshot ("run.*" values over the captureMetrics() base),
  /// including the conservation verdict ("run.conservation_ok").
  MetricsSnapshot collectMetrics(const RunResult &Result);

private:
  void buildMachine();
  std::unique_ptr<CommFabric> buildFabric();

  SystemConfig Config;
  RunOptions Opts;
  std::unique_ptr<MemorySystem> Mem;
  std::unique_ptr<CpuCore> Cpu;
  std::unique_ptr<GpuCore> Gpu;
  std::unique_ptr<CommFabric> Fabric;
  OwnershipRegistry Ownership;
  TraceEventLog Trace;
};

} // namespace hetsim

#endif // HETSIM_CORE_HETEROSIMULATOR_H
