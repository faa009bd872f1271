//===- comm/PciAperture.h - LRB PCI-aperture transfers ----------*- C++ -*-===//
///
/// \file
/// The PCI-aperture mechanism used by the LRB partially shared space
/// (Section II-A3): a portion of the aperture is mapped into user space as
/// a common buffer between the PUs, enabling very low-cost communication
/// (api-tr in Table IV: 7000 cycles per transfer) — but it is intended for
/// small portions of memory, so transfers larger than the mapped window
/// pay one api-tr per window.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMM_PCIAPERTURE_H
#define HETSIM_COMM_PCIAPERTURE_H

#include "comm/CommFabric.h"

namespace hetsim {

/// PCI-aperture fabric.
class PciAperture final : public CommFabric {
public:
  /// \p WindowBytes is the user-space aperture window; Table III's largest
  /// initial transfer (512KB) fits the default, so LRB pays one api-tr per
  /// communication in the paper's runs. \p P is the simulator's own
  /// CommParams (non-owning).
  PciAperture(const CommParams &P, uint64_t Window = 1ull << 20)
      : Params(P), WindowBytes(Window) {}
  PciAperture(CommParams &&, uint64_t = 0) = delete;

  const char *name() const override { return "pci-aperture"; }

  TransferTiming transfer(uint64_t Bytes, TransferDir Dir,
                          Cycle NowCpu) override;

  uint64_t windowBytes() const { return WindowBytes; }

private:
  const CommParams &Params;
  uint64_t WindowBytes;
};

} // namespace hetsim

#endif // HETSIM_COMM_PCIAPERTURE_H
