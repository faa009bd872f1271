//===- perfbench/perfbench.cpp - Sweep benchmark --------------------------===//
///
/// \file
/// Times the simulator's sweeps end to end and layer by layer, and checks
/// every simulated point against the repository's references.
///
///   hetsim_perfbench --workload fig5_serial|fig5_parallel|comm_sweep
///                    --seed N --seconds S --trace 0|1 [--root DIR]
///                    [--limit N] [--spans FILE] [--revision REV]
///                    [--record-comm-refs FILE]
///
/// --trace 0 repeats whole sweeps through SweepRunner::run for about S
/// seconds and reports medians over the passes. --trace 1 runs one
/// untraced sweep (for SweepRunner telemetry and counts) and then one
/// traced sweep that calls each layer's public entry point itself,
/// recording a span per call. The last stdout line is one JSON object
/// with the keys correct, attempted, failed and metrics. See README.md.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProgramLinter.h"
#include "check/Compare.h"
#include "check/ResultDoc.h"
#include "check/Tolerance.h"
#include "common/StringUtil.h"
#include "common/TextTable.h"
#include "common/ThreadPool.h"
#include "core/Experiments.h"
#include "core/SweepRunner.h"
#include "gpu/Coalescer.h"
#include "trace/ComputeBlock.h"
#include "trace/TraceCache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

extern char **environ;

using namespace hetsim;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

enum class Workload { Fig5Serial, Fig5Parallel, CommSweep };

struct Options {
  std::string Name;
  Workload W = Workload::Fig5Serial;
  uint64_t Seed = 1;
  double Seconds = 25;
  bool Trace = false;
  std::string Root = ".";
  size_t Limit = 0;
  std::string Spans;
  std::string Revision = "unknown";
  std::string RecordRefs;
  std::vector<std::string> UnsetEnv;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr, "hetsim_perfbench: %s\n", Msg);
  std::exit(2);
}

/// One design point in canonical (presentation) order.
struct PointSpec {
  SystemConfig Config;
  KernelId Kernel = KernelId::Reduction;
  std::string Label; ///< "<kernel>/<system>" plus "/base=N" on comm_sweep.
};

/// The seven `comm.api_pci_base` values of ablation_comm_latency.
constexpr int64_t PciBases[] = {0, 1000, 5000, 10000, 33250, 66500, 133000};

std::vector<PointSpec> buildPoints(const Options &O) {
  std::vector<PointSpec> Specs;
  if (O.W != Workload::CommSweep) {
    for (CaseStudy Study : allCaseStudies()) {
      SystemConfig Config = SystemConfig::forCaseStudy(Study);
      for (KernelId Kernel : allKernels())
        Specs.push_back({Config, Kernel,
                         std::string(kernelName(Kernel)) + "/" + Config.Name});
    }
  } else {
    // Per-point comm overrides are baked in through forCaseStudy: a
    // SweepPoint override store would rebuild comm.* wholesale.
    static const CaseStudy Studies[] = {CaseStudy::CpuGpu, CaseStudy::Lrb,
                                        CaseStudy::Gmac, CaseStudy::Fusion};
    static const KernelId Kernels[] = {KernelId::Reduction,
                                       KernelId::Convolution,
                                       KernelId::MergeSort};
    for (CaseStudy Study : Studies)
      for (int64_t Base : PciBases) {
        ConfigStore Overrides;
        Overrides.setInt("comm.api_pci_base", Base);
        SystemConfig Config = SystemConfig::forCaseStudy(Study, Overrides);
        for (KernelId Kernel : Kernels)
          Specs.push_back({Config, Kernel,
                           std::string(kernelName(Kernel)) + "/" +
                               Config.Name + "/base=" +
                               std::to_string(Base)});
      }
  }
  if (O.Limit != 0 && O.Limit < Specs.size())
    Specs.resize(O.Limit);
  return Specs;
}

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Submission order of pass \p Pass: a Fisher-Yates shuffle seeded by
/// (seed, pass). Results do not depend on order (the determinism probe's
/// guarantee), so the references hold under every permutation.
std::vector<size_t> permutation(size_t N, uint64_t Seed, uint64_t Pass) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  uint64_t State = Seed * 0x100000001b3ULL + Pass;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix64(State) % I]);
  return Order;
}

unsigned jobsFor(Workload W) {
  if (W != Workload::Fig5Parallel)
    return 1;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Everything a sweep needs before its first point starts.
struct Sweep {
  std::vector<PointSpec> Specs;  ///< Canonical order.
  std::vector<size_t> Order;     ///< Submission slot -> canonical index.
  std::vector<SweepPoint> Points; ///< Submission order.
  SweepRunner Runner;

  explicit Sweep(unsigned Jobs) : Runner(Jobs) {}
};

/// The timed set-up: configs and point list, the SweepRunner, and the
/// trace-cache clear. (SweepRunner builds its ThreadPool inside run(), so
/// pool construction is part of the sweep's wall time.)
Sweep setUp(const Options &O, uint64_t Pass) {
  Sweep S(jobsFor(O.W));
  S.Specs = buildPoints(O);
  S.Order = permutation(S.Specs.size(), O.Seed, Pass);
  S.Points.reserve(S.Specs.size());
  for (size_t Slot : S.Order)
    S.Points.emplace_back(S.Specs[Slot].Config, S.Specs[Slot].Kernel);
  TraceCache::global().clear();
  return S;
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) * 1e-6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

//===----------------------------------------------------------------------===//
// Output check
//===----------------------------------------------------------------------===//

ResultDoc keepRows(const ResultDoc &Doc,
                   const std::map<std::string, size_t> &Labels) {
  ResultDoc Out;
  Out.Name = Doc.Name;
  for (const ResultRow &Row : Doc.Rows)
    if (Labels.count(Row.Label))
      Out.Rows.push_back(Row);
  return Out;
}

/// Checks every point of a sweep: fig5 points against refs/golden/fig5.csv,
/// comm_sweep points against the ablation_comm_latency golden where it has
/// a row and against the per-point references otherwise (and also), all
/// under refs/tolerances.cfg; every point must also report an exact-tier
/// run (memfast.mode == 1) and a clean conservation audit.
class Checker {
public:
  bool load(const Options &O, std::string &Error) {
    W = O.W;
    const std::string Refs = O.Root + "/refs/";
    if (!ToleranceSpec::loadFile(Refs + "tolerances.cfg", Spec, Error))
      return false;
    if (W != Workload::CommSweep)
      return ResultDoc::load("fig5.csv", Refs + "golden/fig5.csv", Fig5,
                             Error);
    ResultDoc Ablation;
    if (!ResultDoc::load("ablation_comm_latency.txt",
                         Refs + "golden/ablation_comm_latency.txt", Ablation,
                         Error))
      return false;
    CommGolden.Name = Ablation.Name;
    for (const ResultRow &Row : Ablation.Rows) {
      const ResultValue *Base = Row.find("api_pci_base");
      const ResultValue *Comm = Row.find("reduction comm_us");
      const ResultValue *Total = Row.find("reduction total_us");
      if (!Base || !Comm || !Total || !Base->IsNumber)
        continue;
      ResultRow Out;
      Out.Label = "reduction/CPU+GPU/base=" +
                  std::to_string(int64_t(Base->Number));
      Out.Fields = {{"comm_us", *Comm}, {"total_us", *Total}};
      CommGolden.Rows.push_back(std::move(Out));
    }
    if (CommGolden.Rows.size() != std::size(PciBases)) {
      Error = "ablation_comm_latency golden: expected one reduction row per "
              "api_pci_base";
      return false;
    }
    // Recording writes the per-point references, so none are read yet.
    HaveRefs = O.RecordRefs.empty();
    return !HaveRefs || ResultDoc::load("comm_sweep.csv",
                           O.Root + "/perfbench/refs/comm_sweep.csv",
                           CommRefs, Error);
  }

  /// Returns one failure reason per point ("" when it passed).
  std::vector<std::string>
  check(const std::vector<PointSpec> &Specs,
        const std::vector<RunResult> &Results,
        const std::vector<MetricsSnapshot> &Metrics) const {
    std::vector<std::string> Reasons(Specs.size());
    std::map<std::string, size_t> Labels;
    for (size_t I = 0; I != Specs.size(); ++I)
      Labels[Specs[I].Label] = I;

    auto Apply = [&](const DiffReport &Report) {
      for (const DiffEntry &E : Report.Entries) {
        auto It = Labels.find(E.Row);
        if (It != Labels.end()) {
          if (Reasons[It->second].empty())
            Reasons[It->second] = E.describe();
          continue;
        }
        for (std::string &R : Reasons) // Unattributable: fail them all.
          if (R.empty())
            R = E.describe();
      }
    };

    if (W != Workload::CommSweep) {
      std::vector<ExperimentRow> Rows(Specs.size());
      for (size_t I = 0; I != Specs.size(); ++I)
        Rows[I] = {Specs[I].Config.Name, Specs[I].Kernel, Results[I]};
      ResultDoc Actual =
          ResultDoc::fromTextTable("fig5.csv", renderFigure5(Rows));
      Apply(compareDocs(keepRows(Fig5, Labels), Actual, Spec));
    } else {
      ResultDoc Actual = ResultDoc::fromTextTable("comm_sweep.csv",
                                                  commTable(Specs, Results));
      if (HaveRefs)
        Apply(compareDocs(keepRows(CommRefs, Labels), Actual, Spec));

      ResultDoc GoldenShaped;
      GoldenShaped.Name = CommGolden.Name;
      for (size_t I = 0; I != Specs.size(); ++I) {
        if (!goldenLabel(Specs[I].Label))
          continue;
        const TimeBreakdown &T = Results[I].Time;
        ResultRow Row;
        Row.Label = Specs[I].Label;
        // The golden prints microseconds with one decimal.
        auto OneDecimal = [](double Ns) {
          return parseResultValue(formatDouble(Ns / 1e3, 1));
        };
        Row.Fields = {{"comm_us", OneDecimal(T.CommunicationNs)},
                      {"total_us", OneDecimal(T.totalNs())}};
        GoldenShaped.Rows.push_back(std::move(Row));
      }
      Apply(compareDocs(keepRows(CommGolden, Labels), GoldenShaped, Spec));
    }

    for (size_t I = 0; I != Specs.size(); ++I) {
      if (!Reasons[I].empty())
        continue;
      if (Metrics[I].get("memfast.mode") != 1.0)
        Reasons[I] = Specs[I].Label + ": not run on the exact tier "
                                      "(memfast.mode != 1)";
      else if (Metrics[I].get("run.conservation_ok") != 1.0)
        Reasons[I] = Specs[I].Label + ": run.conservation_ok != 1";
    }
    return Reasons;
  }

  /// The per-point reference table of comm_sweep (also what
  /// --record-comm-refs writes).
  static TextTable commTable(const std::vector<PointSpec> &Specs,
                             const std::vector<RunResult> &Results) {
    TextTable Table({"point", "seq_us", "par_us", "comm_us", "total_us",
                     "transfers", "page_faults"});
    for (size_t I = 0; I != Specs.size(); ++I) {
      const RunResult &R = Results[I];
      Table.addRow({Specs[I].Label, formatDouble(R.Time.SequentialNs / 1e3, 3),
                    formatDouble(R.Time.ParallelNs / 1e3, 3),
                    formatDouble(R.Time.CommunicationNs / 1e3, 3),
                    formatDouble(R.Time.totalNs() / 1e3, 3),
                    std::to_string(R.TransferCount),
                    std::to_string(R.PageFaults)});
    }
    return Table;
  }

private:
  bool goldenLabel(const std::string &Label) const {
    for (const ResultRow &Row : CommGolden.Rows)
      if (Row.Label == Label)
        return true;
    return false;
  }

  Workload W = Workload::Fig5Serial;
  ToleranceSpec Spec;
  ResultDoc Fig5;
  ResultDoc CommGolden;
  ResultDoc CommRefs;
  bool HaveRefs = false;
};

/// Counts failed points, printing the first few reasons to stderr.
uint64_t countFailures(const std::vector<std::string> &Reasons) {
  uint64_t Failed = 0;
  for (const std::string &R : Reasons)
    if (!R.empty() && ++Failed <= 5)
      std::fprintf(stderr, "perfbench: point failed: %s\n", R.c_str());
  return Failed;
}

/// Runs a prepared sweep and returns results and metrics in canonical
/// order.
void runSweep(Sweep &S, std::vector<RunResult> &Results,
              std::vector<MetricsSnapshot> &Metrics) {
  std::vector<RunResult> Submitted = S.Runner.run(S.Points);
  Results.assign(S.Specs.size(), RunResult());
  Metrics.assign(S.Specs.size(), MetricsSnapshot());
  for (size_t Slot = 0; Slot != S.Order.size(); ++Slot) {
    Results[S.Order[Slot]] = std::move(Submitted[Slot]);
    Metrics[S.Order[Slot]] = S.Runner.metrics()[Slot];
  }
}

double simulatedInsts(const std::vector<MetricsSnapshot> &Metrics) {
  double Sum = 0;
  for (const MetricsSnapshot &M : Metrics)
    Sum += M.get("run.cpu.insts") + M.get("run.gpu.insts");
  return Sum;
}

//===----------------------------------------------------------------------===//
// Result printing
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

void printRecord(const Options &O) {
  std::string Unset;
  for (const std::string &Name : O.UnsetEnv)
    Unset += (Unset.empty() ? "" : ",") + jsonString(Name);
  std::printf("record {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
              "\"trace\":%d,\"nproc\":%u,\"jobs\":%u,\"compiler\":%s,"
              "\"build_flags\":%s,\"revision\":%s,\"fidelity\":\"exact "
              "(default tier; no HETSIM_* knob set)\",\"unset_env\":[%s]}\n",
              jsonString(O.Name).c_str(),
              static_cast<unsigned long long>(O.Seed),
              jsonNumber(O.Seconds).c_str(), O.Trace ? 1 : 0,
              std::thread::hardware_concurrency(), jobsFor(O.W),
              jsonString(PERFBENCH_COMPILER).c_str(),
              jsonString(PERFBENCH_FLAGS).c_str(),
              jsonString(O.Revision).c_str(), Unset.c_str());
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-32s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("points_failed                    %llu of %llu attempted\n",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  std::string Json = "{\"correct\": " +
                     std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json += (I ? ", " : "") + jsonString(Metrics[I].Name) +
            ": {\"value\": " + jsonNumber(Metrics[I].Value) +
            ", \"unit\": " + jsonString(Metrics[I].Unit) + "}";
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

/// Set-up is sub-millisecond and the host's speed drifts within seconds,
/// so its median needs more samples than there are passes: each pass (and
/// the end of the run) adds this many extra set-ups, spreading the
/// samples over the whole run.
constexpr unsigned SetupRepetitions = 15;

void sampleSetUps(const Options &O, uint64_t Pass, std::vector<double> &Out) {
  for (unsigned I = 0; I != SetupRepetitions; ++I) {
    Clock::time_point T0 = Clock::now();
    Sweep S = setUp(O, Pass);
    Out.push_back(secondsBetween(T0, Clock::now()));
  }
}

int runTimed(const Options &O, const Checker &C) {
  std::vector<double> SetupS, WallS, CpuS, MinstPerS;

  uint64_t Attempted = 0, Failed = 0;
  Clock::time_point RunStart = Clock::now();
  for (uint64_t Pass = 0;; ++Pass) {
    sampleSetUps(O, Pass, SetupS);
    Clock::time_point T0 = Clock::now();
    Sweep S = setUp(O, Pass);
    Clock::time_point T1 = Clock::now();
    double Cpu0 = processCpuSeconds();
    std::vector<RunResult> Results;
    std::vector<MetricsSnapshot> Metrics;
    runSweep(S, Results, Metrics);
    Clock::time_point T2 = Clock::now();
    double Cpu = processCpuSeconds() - Cpu0;
    double Wall = secondsBetween(T1, T2);

    SetupS.push_back(secondsBetween(T0, T1));
    WallS.push_back(Wall);
    CpuS.push_back(Cpu);
    MinstPerS.push_back(simulatedInsts(Metrics) / 1e6 / Wall);
    Attempted += S.Specs.size();
    Failed += countFailures(C.check(S.Specs, Results, Metrics));
    std::printf("pass %llu: %zu points, wall %.3f s, cpu %.3f s\n",
                static_cast<unsigned long long>(Pass), S.Specs.size(), Wall,
                Cpu);
    // Teardown (untimed): drop this pass's traces so the next starts cold.
    TraceCache::global().clear();
    // Another pass only if it would end nearer the budget than stopping
    // now does: at most half a pass over, and a steady pass count.
    if (secondsBetween(RunStart, Clock::now()) + Wall / 2 > O.Seconds)
      break;
  }
  sampleSetUps(O, WallS.size(), SetupS);

  std::printf("medians over %zu passes (setup over %zu repetitions)\n",
              WallS.size(), SetupS.size());
  printResult(Failed == 0, Attempted, Failed,
              {{"setup_s", median(SetupS), "s"},
               {"wall_s", median(WallS), "s"},
               {"cpu_s", median(CpuS), "s"},
               {"sim_minst_per_s", median(MinstPerS), "Minst/s"},
               {"peak_rss_mb", peakRssMb(), "MB"}});
  return 0;
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

/// The spans recorded under each point, in call order.
enum SpanKind { Build, Lower, Lint, Expand, Simulate, Collect, Replay,
                NumSpanKinds };
const char *const SpanNames[NumSpanKinds] = {
    "build", "lower", "lint", "expand", "simulate", "collect", "replay"};

struct PointTrace {
  double Start = 0, End = 0; ///< Point span, seconds from traced start.
  double SpanStart[NumSpanKinds] = {};
  double SpanEnd[NumSpanKinds] = {};
  uint64_t Records = 0;        ///< Trace records expanded.
  uint64_t GenInSimulateNs = 0;
  uint64_t GenInReplayNs = 0;
  uint64_t ReplayAccesses = 0;
  MetricsSnapshot Metrics;

  double ms(SpanKind K) const { return (SpanEnd[K] - SpanStart[K]) * 1e3; }
  double pointMs() const { return (End - Start) * 1e3; }
  /// The point's cost in an untraced sweep: without the replay and the
  /// standalone lint, which runLowered repeats internally.
  double untracedMs() const { return pointMs() - ms(Replay) - ms(Lint); }
};

/// Visits a trace as contiguous record spans, expanding run-length blocks
/// window by window exactly as the cores do.
template <typename Fn> void forEachSpan(const SharedTrace &Trace, Fn &&Visit) {
  if (const BlockTrace *Block = Trace.blocks()) {
    BlockExpander Expander(*Block);
    TraceBuffer Window;
    while (!Expander.done()) {
      BlockExpander::Span S = Expander.nextSpan(Window);
      Visit(S.Data, S.Count);
    }
    return;
  }
  const TraceBuffer &Buffer = Trace.buffer();
  Visit(Buffer.records().data(), uint64_t(Buffer.size()));
}

template <typename Fn>
void forEachComputeTrace(const LoweredProgram &Program, Fn &&Visit) {
  for (const ExecStep &Step : Program.Steps) {
    if (Step.Kind == ExecKind::SerialCompute)
      Visit(Step.CpuTrace, PuKind::Cpu);
    else if (Step.Kind == ExecKind::ParallelCompute) {
      Visit(Step.CpuTrace, PuKind::Cpu);
      Visit(Step.GpuTrace, PuKind::Gpu);
    }
  }
}

/// Replays the point's own address stream through a fresh memory system
/// with the point's ranges mapped, one blocking access at a time. Returns
/// the number of accesses made.
uint64_t replayAddressStream(const SystemConfig &Config,
                             const LoweredProgram &Program) {
  MemorySystem Mem(Config.Hier);
  for (const DataSegment &Segment : Program.Place.CpuLayout.segments())
    Mem.mapRange(PuKind::Cpu, Segment.Base, Segment.Bytes);
  for (const DataSegment &Segment : Program.Place.GpuLayout.segments())
    Mem.mapRange(PuKind::Gpu, Segment.Base, Segment.Bytes);

  Cycle Now[2] = {0, 0};
  uint64_t Accesses = 0;
  std::vector<Addr> Lines;
  forEachComputeTrace(Program, [&](const SharedTrace &Trace, PuKind Pu) {
    Cycle &Clock = Now[Pu == PuKind::Cpu ? 0 : 1];
    auto Access = [&](Addr A, uint32_t Bytes, bool IsWrite) {
      MemAccessResult R = Mem.access(Pu, A, Bytes, IsWrite, Clock);
      Clock += std::max<Cycle>(1, R.Latency);
      ++Accesses;
    };
    forEachSpan(Trace, [&](const TraceRecord *Records, uint64_t Count) {
      for (uint64_t I = 0; I != Count; ++I) {
        const TraceRecord &R = Records[I];
        if (!isGlobalMemoryOp(R.Op))
          continue;
        if (Pu == PuKind::Cpu) {
          Access(R.MemAddr, std::max<uint32_t>(R.MemBytes, 1),
                 isStoreOp(R.Op));
          continue;
        }
        coalesceWarpAccess(R, Lines);
        for (Addr Line : Lines)
          Access(Line, CacheLineBytes, isStoreOp(R.Op));
      }
    });
  });
  return Accesses;
}

void tracePoint(const SweepPoint &Point, Clock::time_point Origin,
                PointTrace &T) {
  auto Now = [&] { return secondsBetween(Origin, Clock::now()); };
  T.Start = Now();
  auto Open = [&](SpanKind K) { T.SpanStart[K] = Now(); };
  auto Close = [&](SpanKind K) { T.SpanEnd[K] = Now(); };

  Open(Build);
  HeteroSimulator Simulator(Point.Config);
  Close(Build);

  Open(Lower);
  LoweredProgram Program = lowerKernel(Point.Kernel, Point.Config);
  Close(Lower);

  Open(Lint);
  (void)lintProgram(Program, Point.Config);
  Close(Lint);

  Open(Expand);
  forEachComputeTrace(Program, [&](const SharedTrace &Trace, PuKind) {
    forEachSpan(Trace, [&](const TraceRecord *, uint64_t Count) {
      T.Records += Count;
    });
  });
  Close(Expand);

  Open(Simulate);
  uint64_t Gen0 = threadTraceGenNanos();
  RunResult Result = Simulator.runLowered(Program);
  T.GenInSimulateNs = threadTraceGenNanos() - Gen0;
  Close(Simulate);

  Open(Collect);
  T.Metrics = Simulator.collectMetrics(Result);
  Close(Collect);

  Open(Replay);
  Gen0 = threadTraceGenNanos();
  T.ReplayAccesses = replayAddressStream(Point.Config, Program);
  T.GenInReplayNs = threadTraceGenNanos() - Gen0;
  Close(Replay);
  T.End = Now();
}

bool writeSpans(const std::string &Path, const std::vector<PointTrace> &Traces,
                const std::vector<size_t> &Order,
                const std::vector<PointSpec> &Specs) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  for (size_t Slot = 0; Slot != Traces.size(); ++Slot) {
    const PointTrace &T = Traces[Slot];
    const std::string Id = std::to_string(Slot);
    std::fprintf(File,
                 "{\"id\":\"p%s\",\"point\":%s,\"name\":\"point\","
                 "\"parent\":null,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 Id.c_str(), jsonString(Specs[Order[Slot]].Label).c_str(),
                 T.Start * 1e6, T.End * 1e6);
    for (unsigned K = 0; K != NumSpanKinds; ++K)
      std::fprintf(File,
                   "{\"id\":\"p%s.%s\",\"point\":%s,\"name\":\"%s\","
                   "\"parent\":\"p%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   Id.c_str(), SpanNames[K],
                   jsonString(Specs[Order[Slot]].Label).c_str(), SpanNames[K],
                   Id.c_str(), T.SpanStart[K] * 1e6, T.SpanEnd[K] * 1e6);
  }
  return std::fclose(File) == 0;
}

int runTraced(const Options &O, const Checker &C) {
  // 1. One untraced sweep: SweepRunner telemetry, the counts from
  //    SweepRunner::metrics(), and the wall time the traced sweep is
  //    compared against.
  Sweep S = setUp(O, 0);
  std::vector<RunResult> Results;
  std::vector<MetricsSnapshot> Metrics;
  Clock::time_point T0 = Clock::now();
  runSweep(S, Results, Metrics);
  double UntracedWall = secondsBetween(T0, Clock::now());
  SweepTelemetry Telemetry = S.Runner.telemetry();
  uint64_t Attempted = S.Specs.size();
  std::vector<std::string> Reasons = C.check(S.Specs, Results, Metrics);
  TraceCache::global().clear();

  // 2. The traced sweep: same points, same order, same worker count, each
  //    layer called directly with one span per call.
  Sweep Traced = setUp(O, 0);
  std::vector<PointTrace> Traces(Traced.Points.size());
  Clock::time_point Origin = Clock::now();
  {
    ThreadPool Pool(jobsFor(O.W));
    Pool.parallelForWorkers(Traced.Points.size(), [&](size_t I, unsigned) {
      tracePoint(Traced.Points[I], Origin, Traces[I]);
    });
  }
  double TracedWall = secondsBetween(Origin, Clock::now());
  TraceCache::global().clear();
  if (!O.Spans.empty() &&
      !writeSpans(O.Spans, Traces, Traced.Order, Traced.Specs))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 O.Spans.c_str());

  // Tracing must not change what is simulated.
  for (size_t Slot = 0; Slot != Traces.size(); ++Slot) {
    size_t I = Traced.Order[Slot];
    if (Reasons[I].empty() &&
        Traces[Slot].Metrics.values() != Metrics[I].values())
      Reasons[I] = S.Specs[I].Label + ": traced run differs from SweepRunner";
  }
  uint64_t Failed = countFailures(Reasons);

  // Self times. Spans under a point do not nest, so each child's self time
  // is its duration; the point's residual is "other". The standalone lint
  // repeats the lint runLowered does first, so it is subtracted from
  // simulate; the traced sweep still pays it twice.
  double Self[NumSpanKinds] = {};
  double OtherMs = 0, GenInSimMs = 0, ReplayNetMs = 0, PipelineMs = 0;
  double Records = 0, ReplayAccesses = 0;
  std::vector<double> PointMs;
  std::map<KernelId, std::pair<double, double>> PerKernel; // ms, insts
  for (size_t Slot = 0; Slot != Traces.size(); ++Slot) {
    const PointTrace &T = Traces[Slot];
    double Children = 0;
    for (unsigned K = 0; K != NumSpanKinds; ++K) {
      Self[K] += T.ms(SpanKind(K));
      Children += T.ms(SpanKind(K));
    }
    Self[Simulate] -= T.ms(Lint);
    OtherMs += T.pointMs() - Children;
    GenInSimMs += double(T.GenInSimulateNs) * 1e-6;
    double NetReplayMs = T.ms(Replay) - double(T.GenInReplayNs) * 1e-6;
    ReplayNetMs += NetReplayMs;
    Records += double(T.Records);
    ReplayAccesses += double(T.ReplayAccesses);
    double SimMs = T.ms(Simulate) - T.ms(Lint);
    double MemAccesses = T.Metrics.get("mem.cpu_accesses") +
                         T.Metrics.get("mem.gpu_accesses");
    double NsPerAccess =
        T.ReplayAccesses ? NetReplayMs * 1e6 / double(T.ReplayAccesses) : 0;
    PipelineMs += SimMs - double(T.GenInSimulateNs) * 1e-6 -
                  MemAccesses * NsPerAccess * 1e-6;
    PointMs.push_back(T.untracedMs());
    auto &K = PerKernel[Traced.Points[Slot].Kernel];
    K.first += SimMs;
    K.second +=
        T.Metrics.get("run.cpu.insts") + T.Metrics.get("run.gpu.insts");
  }
  std::sort(PointMs.begin(), PointMs.end());
  // Tail: the highest percentile with at least ten points beyond it.
  size_t TailIndex = PointMs.size() > 10 ? PointMs.size() - 11 : 0;

  auto Sum = [&](const char *Name) {
    double V = 0;
    for (const MetricsSnapshot &M : Metrics)
      V += M.get(Name);
    return V;
  };
  auto SumPair = [&](const char *A, const char *B) { return Sum(A) + Sum(B); };
  double Insts = SumPair("run.cpu.insts", "run.gpu.insts");
  auto NsPerInst = [&](KernelId K) {
    auto It = PerKernel.find(K);
    return It == PerKernel.end() || It->second.second == 0
               ? 0.0
               : It->second.first * 1e6 / It->second.second;
  };
  unsigned Jobs = jobsFor(O.W);
  double ExtraMs = Self[Replay] + Self[Lint]; // Work only the traced run does.

  std::vector<Metric> Out = {
      {"core.build_ms", Self[Build], "ms"},
      {"core.lower_ms", Self[Lower], "ms"},
      {"analysis.lint_ms", Self[Lint], "ms"},
      {"trace.expand_ms", Self[Expand], "ms"},
      {"trace.records", Records, "count"},
      {"trace_cache.hits", double(Telemetry.CacheHits), "count"},
      {"trace_cache.misses", double(Telemetry.CacheMisses), "count"},
      {"trace_cache.lock_wait_s", Telemetry.LockWaitSeconds, "s"},
      {"core.simulate_ms", Self[Simulate], "ms"},
      {"trace.gen_in_simulate_ms", GenInSimMs, "ms"},
      {"sim.ns_per_inst",
       Insts == 0 ? 0.0 : Self[Simulate] * 1e6 / Insts, "ns"},
      {"sim.ns_per_inst.reduction", NsPerInst(KernelId::Reduction), "ns"},
      {"sim.ns_per_inst.convolution", NsPerInst(KernelId::Convolution), "ns"},
      {"sim.ns_per_inst.merge_sort", NsPerInst(KernelId::MergeSort), "ns"},
      {"memory.ns_per_access",
       ReplayAccesses == 0 ? 0.0 : ReplayNetMs * 1e6 / ReplayAccesses, "ns"},
      {"mem.accesses", SumPair("mem.cpu_accesses", "mem.gpu_accesses"),
       "count"},
      {"tlb.misses", SumPair("tlb.cpu.misses", "tlb.gpu.misses"), "count"},
      {"cache.l1.misses",
       SumPair("cache.cpu_l1.misses", "cache.gpu_l1.misses"), "count"},
      {"cache.l2.misses", Sum("cache.cpu_l2.misses"), "count"},
      {"cache.l3.misses", Sum("cache.l3.misses"), "count"},
      {"dram.reads", SumPair("dram.cpu.reads", "dram.gpu.reads"), "count"},
      {"dram.row_hits", SumPair("dram.cpu.row_hits", "dram.gpu.row_hits"),
       "count"},
      {"noc.hops", Sum("noc.hops"), "count"},
      {"core.pipeline_ms_est", PipelineMs, "ms"},
      {"run.cpu.insts", Sum("run.cpu.insts"), "count"},
      {"run.gpu.insts", Sum("run.gpu.insts"), "count"},
      {"run.cpu.cycles", Sum("run.cpu.cycles"), "count"},
      {"run.gpu.cycles", Sum("run.gpu.cycles"), "count"},
      {"memfast.fold_attempts", Sum("memfast.fold_attempts"), "count"},
      {"memfast.folded_share",
       Records == 0 ? 0.0 : Sum("memfast.folded_records") / Records, "ratio"},
      {"run.transfers", Sum("run.transfers"), "count"},
      {"run.transfer_bytes", Sum("run.transfer_bytes"), "bytes"},
      {"run.page_faults", Sum("run.page_faults"), "count"},
      {"obs.collect_ms", Self[Collect], "ms"},
      {"sweep.idle_s",
       double(Telemetry.Jobs) * Telemetry.WallSeconds - Telemetry.BusySeconds,
       "s"},
      {"sweep.critical_path_s", PointMs.empty() ? 0.0 : PointMs.back() / 1e3,
       "s"},
      {"point_ms_p50", median(PointMs), "ms"},
      {"point_ms_tail", PointMs.empty() ? 0.0 : PointMs[TailIndex], "ms"},
      {"trace.replay_ms", Self[Replay], "ms"},
      {"trace.other_ms", OtherMs, "ms"},
      {"trace.wall_s", TracedWall, "s"},
      {"trace.overhead_share", TracedWall / UntracedWall - 1, "ratio"},
      {"trace.span_overhead_share",
       (TracedWall - ExtraMs / 1e3 / Jobs) / UntracedWall - 1, "ratio"},
  };

  // Human-readable breakdown: self time per layer against the traced wall.
  double Busy = TracedWall * 1e3 * Jobs;
  std::printf("traced sweep: %zu points, jobs=%u, traced wall %.3f s, "
              "untraced wall %.3f s\n",
              Traces.size(), Jobs, TracedWall, UntracedWall);
  std::printf("%-26s %12s %8s\n", "layer (self time)", "ms", "share");
  auto Row = [&](const char *Name, double Ms) {
    std::printf("%-26s %12.3f %7.1f%%\n", Name, Ms, 100.0 * Ms / Busy);
  };
  Row("core build", Self[Build]);
  Row("core lower", Self[Lower]);
  Row("analysis lint", Self[Lint]);
  Row("trace expand", Self[Expand]);
  Row("core simulate (- lint)", Self[Simulate]);
  Row("lint inside simulate", Self[Lint]);
  Row("obs collect", Self[Collect]);
  Row("memory replay", Self[Replay]);
  Row("other (point residual)", OtherMs);
  Row("outside points", Busy - (Self[Build] + Self[Lower] + 2 * Self[Lint] +
                                Self[Expand] + Self[Simulate] +
                                Self[Collect] + Self[Replay] + OtherMs));
  std::printf("point latency samples: %zu; tail = p%.1f\n", PointMs.size(),
              PointMs.empty() ? 0.0
                              : 100.0 * double(TailIndex + 1) /
                                    double(PointMs.size()));
  std::printf("estimates: memory.ns_per_access (replay), "
              "core.pipeline_ms_est (simulate - gen - accesses x "
              "ns_per_access)\n");

  printResult(Failed == 0, Attempted, Failed, Out);
  return 0;
}

int recordCommRefs(const Options &O, const Checker &C) {
  Sweep S = setUp(O, 0);
  std::vector<RunResult> Results;
  std::vector<MetricsSnapshot> Metrics;
  runSweep(S, Results, Metrics);
  // The ablation golden must already agree before references are written.
  std::vector<std::string> Reasons = C.check(S.Specs, Results, Metrics);
  if (countFailures(Reasons) != 0)
    return 1;
  std::ofstream Out(O.RecordRefs, std::ios::binary);
  Out << Checker::commTable(S.Specs, Results).renderCsv();
  return Out ? 0 : 1;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; I += 2) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[I + 1];
    auto Unsigned = [&] {
      char *End = nullptr;
      uint64_t V = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || Value[0] == '-' || *End != '\0')
        usage(("bad value for " + Arg).c_str());
      return V;
    };
    if (Arg == "--workload") {
      O.Name = Value;
      if (Value == "fig5_serial")
        O.W = Workload::Fig5Serial;
      else if (Value == "fig5_parallel")
        O.W = Workload::Fig5Parallel;
      else if (Value == "comm_sweep")
        O.W = Workload::CommSweep;
      else
        usage("unknown workload");
    } else if (Arg == "--seed") {
      O.Seed = Unsigned();
    } else if (Arg == "--seconds") {
      O.Seconds = double(Unsigned());
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      O.Trace = Value == "1";
    } else if (Arg == "--limit") {
      O.Limit = Unsigned();
    } else if (Arg == "--root") {
      O.Root = Value;
    } else if (Arg == "--spans") {
      O.Spans = Value;
    } else if (Arg == "--revision") {
      O.Revision = Value;
    } else if (Arg == "--record-comm-refs") {
      O.RecordRefs = Value;
    } else {
      usage(("unknown argument " + Arg).c_str());
    }
  }
  if (O.Name.empty())
    usage("--workload is required");
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  if (O.Limit != 0 && O.W != Workload::CommSweep)
    usage("--limit applies to comm_sweep only (fig5 is normalized to its "
          "IDEAL-HETERO rows)");
  return O;
}

/// Fidelity guard: the simulator reads HETSIM_* knobs through getenv, and
/// some of them (HETSIM_MEMFAST=sampled, HETSIM_RESULT_STORE, ...) change
/// what a point costs or where its result comes from. Drop every one
/// before the first simulator call so only the default exact tier runs.
void unsetHetsimEnvironment(Options &O) {
  std::vector<std::string> Names;
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "HETSIM_", 7) == 0)
      Names.emplace_back(*Env, std::strcspn(*Env, "="));
  for (const std::string &Name : Names)
    unsetenv(Name.c_str());
  O.UnsetEnv = std::move(Names);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  unsetHetsimEnvironment(O);

  Checker C;
  std::string Error;
  if (!C.load(O, Error)) {
    std::fprintf(stderr, "hetsim_perfbench: cannot load references: %s\n",
                 Error.c_str());
    return 2;
  }
  if (!O.RecordRefs.empty())
    return recordCommRefs(O, C);
  printRecord(O);
  return O.Trace ? runTraced(O, C) : runTimed(O, C);
}
