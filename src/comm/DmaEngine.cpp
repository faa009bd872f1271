//===- comm/DmaEngine.cpp -------------------------------------------------===//

#include "comm/DmaEngine.h"

#include <algorithm>

using namespace hetsim;

TransferTiming DmaEngine::transfer(uint64_t Bytes, TransferDir Dir,
                                   Cycle NowCpu) {
  note(Bytes);
  // The engine performs the copy on the wrapped link, starting when both
  // the request is issued and the engine is free.
  Cycle Issue = Params.get<CommField::AsyncIssueOverhead>();
  Cycle Start = std::max(NowCpu + Issue, EngineFree);
  TransferTiming LinkTiming = Link->transfer(Bytes, Dir, Start);
  EngineFree = Start + LinkTiming.CpuBusyCycles;
  TotalBusy += LinkTiming.CpuBusyCycles;

  TransferTiming T;
  T.Asynchronous = true;
  T.CpuBusyCycles = Issue;
  T.CompleteCycle = EngineFree;
  return T;
}

Cycle DmaEngine::waitAll(Cycle NowCpu) {
  if (EngineFree <= NowCpu)
    return 0; // Fully hidden under computation.
  Cycle Stall = EngineFree - NowCpu;
  TotalStall += Stall;
  return Stall;
}
