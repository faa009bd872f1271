//===- comm/PciExpressLink.h - Synchronous PCI-E copies ---------*- C++ -*-===//
///
/// \file
/// The api-pci mechanism of Table IV: a synchronous memcpy over PCI-E 2.0
/// (fixed API cost + bytes at 16GB/s). Used by the CPU+GPU(CUDA) case
/// study, and as the raw link underneath GMAC's DMA engine.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMM_PCIEXPRESSLINK_H
#define HETSIM_COMM_PCIEXPRESSLINK_H

#include "comm/CommFabric.h"

namespace hetsim {

/// Synchronous PCI-E transfer fabric.
class PciExpressLink final : public CommFabric {
public:
  /// \p P is the simulator's own CommParams (non-owning): reads through
  /// it are recorded in its read mask.
  explicit PciExpressLink(const CommParams &P) : Params(P) {}
  explicit PciExpressLink(CommParams &&) = delete;

  const char *name() const override { return "pci-e"; }

  TransferTiming transfer(uint64_t Bytes, TransferDir Dir,
                          Cycle NowCpu) override;

private:
  const CommParams &Params;
};

} // namespace hetsim

#endif // HETSIM_COMM_PCIEXPRESSLINK_H
