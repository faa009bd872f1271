//===- examples/custom_kernel.cpp - Bring your own workload ---------------===//
///
/// \file
/// Shows the lower-level public API: build a custom workload (a 5-point
/// stencil) directly as trace buffers and an executable step sequence,
/// then run it on two design points with HeteroSimulator::runLowered().
/// This is the path for evaluating kernels beyond the paper's six.
///
/// Build & run:  ./build/examples/custom_kernel
///
//===----------------------------------------------------------------------===//

#include "core/HeteroSimulator.h"

#include <cstdio>

using namespace hetsim;

namespace {

/// Emits one CPU stencil pass over [Base, Base+Bytes): for each point,
/// load 3 neighbours, combine, store.
TraceBuffer makeCpuStencil(Addr In, Addr Out, uint64_t Points) {
  TraceBuffer Trace;
  const uint32_t Pc = 0x800000;
  for (uint64_t I = 0; I != Points; ++I) {
    Addr Center = In + I * 4;
    uint8_t V = uint8_t(8 + I % 20);
    Trace.emitLoad(Pc + 0, V, Center, 4);
    Trace.emitLoad(Pc + 4, uint8_t(V + 1), Center + 4, 4);
    Trace.emitLoad(Pc + 8, uint8_t(V + 2), Center + 8, 4);
    Trace.emitAlu(Opcode::FpAlu, Pc + 12, uint8_t(V + 3), V, uint8_t(V + 1));
    Trace.emitAlu(Opcode::FpMac, Pc + 16, uint8_t(V + 3), uint8_t(V + 2),
                  6);
    Trace.emitStore(Pc + 20, uint8_t(V + 3), Out + I * 4, 4);
    Trace.emitBranch(Pc + 24, /*Taken=*/true, 0);
  }
  return Trace;
}

/// The same pass as 8-wide warps for the GPU.
TraceBuffer makeGpuStencil(Addr In, Addr Out, uint64_t Points) {
  TraceBuffer Trace;
  const uint32_t Pc = 0x900000;
  for (uint64_t I = 0; I != Points / 8; ++I) {
    Addr Center = In + I * 32;
    uint8_t V = uint8_t(8 + I % 20);
    Trace.emitSimdLoad(Pc + 0, V, Center, 4, 8, 4);
    Trace.emitSimdLoad(Pc + 4, uint8_t(V + 1), Center + 4, 4, 8, 4);
    Trace.emitAlu(Opcode::FpMac, Pc + 8, uint8_t(V + 2), V, uint8_t(V + 1));
    Trace.emitSimdStore(Pc + 12, uint8_t(V + 2), Out + I * 32, 4, 8, 4);
    Trace.emitBranch(Pc + 16, /*Taken=*/true, 0);
  }
  return Trace;
}

/// Assembles a lowered program: copy in, compute on both PUs, copy out.
LoweredProgram makeStencilProgram(const SystemConfig &Config,
                                  uint64_t Points) {
  const uint64_t Bytes = Points * 4;
  LoweredProgram Program;

  // Place input and output according to the configured address space.
  Addr Base = Config.AddrSpace == AddressSpaceKind::Disjoint
                  ? region::CpuPrivateBase
                  : region::SharedBase;
  DataSegment In{"in", Base, Bytes + 64, TransferDir::HostToDevice};
  DataSegment Out{"out", Base + Bytes + 4096, Bytes,
                  TransferDir::DeviceToHost};
  Program.Place.Kind = Config.AddrSpace;
  Program.Place.CpuLayout.addSegment(In);
  Program.Place.CpuLayout.addSegment(Out);

  // The GPU works on the second half; under a disjoint space it works on
  // duplicated buffers in its own region.
  Addr GpuBase = Config.AddrSpace == AddressSpaceKind::Disjoint
                     ? region::GpuPrivateBase
                     : Base;
  DataSegment GpuIn{"in", GpuBase, Bytes + 64, TransferDir::HostToDevice};
  DataSegment GpuOut{"out", GpuBase + Bytes + 4096, Bytes,
                     TransferDir::DeviceToHost};
  Program.Place.GpuLayout.addSegment(GpuIn);
  Program.Place.GpuLayout.addSegment(GpuOut);

  const uint64_t Half = Points / 2;
  if (Config.AddrSpace == AddressSpaceKind::Disjoint) {
    ExecStep CopyIn;
    CopyIn.Kind = ExecKind::Transfer;
    CopyIn.Bytes = Bytes;
    CopyIn.Dir = TransferDir::HostToDevice;
    CopyIn.Objects = {"in"};
    Program.Steps.push_back(std::move(CopyIn));
  }

  ExecStep Compute;
  Compute.Kind = ExecKind::ParallelCompute;
  Compute.CpuTrace = makeCpuStencil(In.Base, Out.Base, Half);
  Compute.GpuTrace =
      makeGpuStencil(GpuIn.Base + Half * 4, GpuOut.Base + Half * 4, Half);
  Program.Steps.push_back(std::move(Compute));

  if (Config.AddrSpace == AddressSpaceKind::Disjoint) {
    ExecStep CopyOut;
    CopyOut.Kind = ExecKind::Transfer;
    CopyOut.Bytes = Bytes;
    CopyOut.Dir = TransferDir::DeviceToHost;
    CopyOut.Objects = {"out"};
    Program.Steps.push_back(std::move(CopyOut));
  }
  return Program;
}

} // namespace

int main() {
  RunOptions Opts = RunOptions::fromEnvironment();
  const uint64_t Points = 256 * 1024; // 1MB of f32 points.
  std::printf("Custom 5-point stencil over %llu points on two design "
              "points:\n\n",
              (unsigned long long)Points);

  for (CaseStudy Study : {CaseStudy::CpuGpu, CaseStudy::IdealHetero}) {
    SystemConfig Config = SystemConfig::forCaseStudy(Study);
    HeteroSimulator Sim(Config, Opts);
    LoweredProgram Program = makeStencilProgram(Config, Points);
    RunResult R = Sim.runLowered(Program);
    std::printf("  %-14s total %8.1f us (par %8.1f, comm %6.1f)  "
                "CPU IPC %.2f, GPU mem accesses %llu\n",
                Config.Name.c_str(), R.Time.totalNs() / 1e3,
                R.Time.ParallelNs / 1e3, R.Time.CommunicationNs / 1e3,
                R.CpuTotal.ipc(),
                (unsigned long long)R.GpuTotal.MemAccesses);
  }

  std::printf("\nThe same trace-level API accepts any workload: emit "
              "records with\nTraceBuffer, wrap them in ExecSteps, and run "
              "them on any SystemConfig.\n");
  return 0;
}
