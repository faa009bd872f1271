//===- obs/Phase.h - Per-phase time attribution -----------------*- C++ -*-===//
///
/// \file
/// Run-phase taxonomy for the observability layer. Every nanosecond a
/// simulated run spends is attributed to exactly one RunPhase, giving the
/// paper's Figure-style compute/communication breakdowns a finer-grained,
/// machine-checkable form: the phase sums must reconcile with the coarse
/// TimeBreakdown (sequential/parallel/communication) the simulator already
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_OBS_PHASE_H
#define HETSIM_OBS_PHASE_H

#include <cstdint>

namespace hetsim {

/// Where a slice of wall-clock (simulated ns) went.
enum class RunPhase : uint8_t {
  SerialCompute,    ///< CPU serial segments (exposed, non-overlapped part).
  ParallelCompute,  ///< Offloaded kernel execution on the parallel PU.
  Transfer,         ///< Explicit copies (memcpy/DMA issue + bus time).
  DmaWait,          ///< Blocking on outstanding asynchronous DMA.
  Ownership,        ///< Ownership transfer / release-flush boundaries.
  Push,             ///< Explicit locality pushes into the shared L3.
  PageFault,        ///< First-touch page-fault handling inside kernels.
  CopyOverlapStall, ///< Kernel-visible stall from copy/contention overlap.
};

constexpr unsigned NumRunPhases = 8;

/// Stable lowercase name ("serial_compute", ...), used as the JSON key
/// and the Chrome trace-event name.
const char *runPhaseName(RunPhase Phase);

/// Nanoseconds attributed per phase. Plain aggregate so RunResult can
/// embed it by value.
struct PhaseBreakdown {
  double Ns[NumRunPhases] = {};

  bool operator==(const PhaseBreakdown &) const = default;

  void add(RunPhase Phase, double DeltaNs) {
    Ns[unsigned(Phase)] += DeltaNs;
  }
  double ns(RunPhase Phase) const { return Ns[unsigned(Phase)]; }

  double totalNs() const {
    double Total = 0;
    for (double N : Ns)
      Total += N;
    return Total;
  }

  /// Compute side of the paper's split: serial + parallel kernel time.
  double computeNs() const {
    return ns(RunPhase::SerialCompute) + ns(RunPhase::ParallelCompute);
  }

  /// Communication side: everything that is not kernel compute.
  double communicationNs() const { return totalNs() - computeNs(); }
};

} // namespace hetsim

#endif // HETSIM_OBS_PHASE_H
