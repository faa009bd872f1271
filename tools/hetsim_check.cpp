//===- tools/hetsim_check.cpp - Paper-fidelity regression gate ------------===//
///
/// \file
/// The regression-check CLI over `refs/` (see check/Golden.h for the
/// directory layout):
///
///   hetsim_check diff [--out DIR] [--refs DIR] [--report FILE]
///       tolerance-aware comparison of every manifest artifact against
///       its golden; ranked per-metric report, nonzero exit on drift
///   hetsim_check fidelity [--out DIR] [--refs DIR]
///       paper-expected values and trends (loose bands) over the same
///       artifacts
///   hetsim_check bless [--out DIR] [--refs DIR]
///       copy the current artifacts over the goldens after an intended
///       change (commit the refs/ diff alongside the change)
///   hetsim_check determinism [--jobs N] [--kernel NAME]
///       run the design-space sweep serially and with N workers and
///       byte-compare the rendered table and sweep metrics document
///
/// Exit status: 0 clean, 1 violations, 2 usage or unreadable refs — so
/// `scripts/ci.sh` gate 5 can gate on it directly.
///
//===----------------------------------------------------------------------===//

#include "check/Golden.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/Json.h"

using namespace hetsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hetsim_check diff [--out DIR] [--refs DIR] "
               "[--report FILE]\n"
               "  hetsim_check fidelity [--out DIR] [--refs DIR]\n"
               "  hetsim_check bless [--out DIR] [--refs DIR]\n"
               "  hetsim_check determinism [--jobs N] [--kernel NAME]\n");
  return 2;
}

struct Options {
  CheckPaths Paths;
  std::string ReportPath;
  std::string Kernel;
  unsigned Jobs = 8;
  bool Ok = true;
};

Options parseOptions(int Argc, char **Argv, int Start) {
  Options Opts;
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto TakeValue = [&](std::string &Out) {
      if (I + 1 >= Argc) {
        Opts.Ok = false;
        return;
      }
      Out = Argv[++I];
    };
    if (Arg == "--out") {
      TakeValue(Opts.Paths.OutDir);
    } else if (Arg == "--refs") {
      TakeValue(Opts.Paths.RefsDir);
    } else if (Arg == "--report") {
      TakeValue(Opts.ReportPath);
    } else if (Arg == "--kernel") {
      TakeValue(Opts.Kernel);
    } else if (Arg == "--jobs") {
      std::string Value;
      TakeValue(Value);
      char *End = nullptr;
      unsigned long Jobs = std::strtoul(Value.c_str(), &End, 10);
      if (End == Value.c_str() || *End != '\0' || Jobs == 0 || Jobs > 1024)
        Opts.Ok = false;
      else
        Opts.Jobs = static_cast<unsigned>(Jobs);
    } else {
      Opts.Ok = false;
    }
  }
  return Opts;
}

/// Prints (and optionally writes) a ranked report; returns the exit code.
int finishReport(const DiffReport &Report, const std::string &Title,
                 const std::string &ReportPath) {
  std::string Text = Report.render(Title);
  std::fputs(Text.c_str(), stdout);
  if (!ReportPath.empty() && !writeTextFile(ReportPath, Text))
    std::fprintf(stderr, "warning: cannot write report to %s\n",
                 ReportPath.c_str());
  return Report.ok() ? 0 : 1;
}

int cmdDiff(const Options &Opts) {
  std::string Error;
  std::vector<std::string> Names;
  if (!loadManifest(Opts.Paths.manifestPath(), Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  ToleranceSpec Spec;
  if (!ToleranceSpec::loadFile(Opts.Paths.tolerancesPath(), Spec, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  DiffReport Report = diffGoldens(Opts.Paths, Names, Spec);
  return finishReport(Report, "hetsim_check diff", Opts.ReportPath);
}

int cmdFidelity(const Options &Opts) {
  std::string Error;
  FidelitySet Set;
  if (!FidelitySet::loadFile(Opts.Paths.fidelityPath(), Set, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  DiffReport Report = fidelityGoldens(Opts.Paths, Set);
  return finishReport(Report, "hetsim_check fidelity", Opts.ReportPath);
}

int cmdBless(const Options &Opts) {
  std::string Error;
  std::vector<std::string> Names;
  if (!loadManifest(Opts.Paths.manifestPath(), Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (!blessGoldens(Opts.Paths, Names, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("blessed %zu artifacts: %s -> %s/golden\n", Names.size(),
              Opts.Paths.OutDir.c_str(), Opts.Paths.RefsDir.c_str());
  return 0;
}

int cmdDeterminism(const Options &Opts, const RunOptions &Run) {
  DeterminismOutcome Outcome =
      checkSweepDeterminism(Opts.Jobs, Opts.Kernel, Run);
  std::printf("determinism: %s\n%s\n", Outcome.Ok ? "ok" : "FAIL",
              Outcome.Detail.c_str());
  return Outcome.Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Command = Argv[1];
  Options Opts = parseOptions(Argc, Argv, 2);
  if (!Opts.Ok)
    return usage();
  RunOptions Run = RunOptions::fromEnvironment();
  if (Command == "diff")
    return cmdDiff(Opts);
  if (Command == "fidelity")
    return cmdFidelity(Opts);
  if (Command == "bless")
    return cmdBless(Opts);
  if (Command == "determinism")
    return cmdDeterminism(Opts, Run);
  return usage();
}
