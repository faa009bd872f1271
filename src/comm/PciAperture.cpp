//===- comm/PciAperture.cpp -----------------------------------------------===//

#include "comm/PciAperture.h"

using namespace hetsim;

TransferTiming PciAperture::transfer(uint64_t Bytes, TransferDir,
                                     Cycle NowCpu) {
  note(Bytes);
  TransferTiming T;
  uint64_t Windows = Bytes == 0 ? 1 : ceilDiv(Bytes, WindowBytes);
  T.CpuBusyCycles = Windows * Params.get<CommField::ApiTransfer>();
  T.CompleteCycle = NowCpu + T.CpuBusyCycles;
  return T;
}
