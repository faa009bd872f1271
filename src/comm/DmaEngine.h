//===- comm/DmaEngine.h - Asynchronous copy engine (GMAC) -------*- C++ -*-===//
///
/// \file
/// GMAC's asynchronous copies (Section V-A): "asynchronous copies are
/// performed during computation, so the communication cost can be easily
/// hidden". The DMA engine wraps an underlying synchronous fabric: issuing
/// a copy costs only the API overhead; the copy itself proceeds in the
/// background on the wrapped link, serialized with other outstanding
/// copies. waitAll() charges whatever has not been hidden.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMM_DMAENGINE_H
#define HETSIM_COMM_DMAENGINE_H

#include "comm/CommFabric.h"

#include <memory>

namespace hetsim {

/// Asynchronous wrapper over a synchronous link.
class DmaEngine final : public CommFabric {
public:
  /// \p P is the simulator's own CommParams (non-owning).
  DmaEngine(const CommParams &P, std::unique_ptr<CommFabric> Backend)
      : Params(P), Link(std::move(Backend)) {}
  DmaEngine(CommParams &&, std::unique_ptr<CommFabric>) = delete;

  const char *name() const override { return "dma-async"; }

  TransferTiming transfer(uint64_t Bytes, TransferDir Dir,
                          Cycle NowCpu) override;

  Cycle waitAll(Cycle NowCpu) override;

  Cycle busyUntil() const override { return EngineFree; }

  /// Cycle at which the engine becomes idle (all issued copies done).
  Cycle idleAt() const { return EngineFree; }

  /// Cycles of copy time hidden under computation: total link-busy time
  /// minus the stalls the CPU actually paid in waitAll().
  uint64_t hiddenCycles() const {
    return TotalBusy > TotalStall ? TotalBusy - TotalStall : 0;
  }

private:
  const CommParams &Params;
  std::unique_ptr<CommFabric> Link;
  Cycle EngineFree = 0;
  uint64_t TotalBusy = 0;
  uint64_t TotalStall = 0;
};

} // namespace hetsim

#endif // HETSIM_COMM_DMAENGINE_H
