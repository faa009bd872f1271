//===- check/Golden.cpp ---------------------------------------------------===//

#include "check/Golden.h"

#include "core/Experiments.h"
#include "obs/Json.h"

#include <filesystem>
#include <map>
#include <sstream>

using namespace hetsim;

bool hetsim::loadManifest(const std::string &Path,
                          std::vector<std::string> &Names,
                          std::string &Error) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    Error = "cannot read " + Path;
    return false;
  }
  Names.clear();
  std::istringstream Stream(Text);
  std::string Line;
  while (std::getline(Stream, Line)) {
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Tokens(Line);
    std::string Name;
    if (Tokens >> Name)
      Names.push_back(Name);
  }
  if (Names.empty()) {
    Error = Path + " lists no artifacts";
    return false;
  }
  return true;
}

namespace {

DiffEntry makeDocEntry(DiffKind Kind, const std::string &Doc,
                       const std::string &Detail) {
  DiffEntry Entry;
  Entry.Kind = Kind;
  Entry.Doc = Doc;
  Entry.Detail = Detail;
  return Entry;
}

} // namespace

DiffReport hetsim::diffGoldens(const CheckPaths &Paths,
                               const std::vector<std::string> &Names,
                               const ToleranceSpec &Spec) {
  DiffReport Report;
  for (const std::string &Name : Names) {
    ResultDoc Reference, Actual;
    std::string Error;
    if (!ResultDoc::load(Name, Paths.goldenPath(Name), Reference, Error)) {
      Report.Entries.push_back(makeDocEntry(
          DiffKind::MissingDoc, Name, "golden unavailable: " + Error));
      continue;
    }
    if (!ResultDoc::load(Name, Paths.OutDir + "/" + Name, Actual, Error)) {
      Report.Entries.push_back(makeDocEntry(
          DiffKind::MissingDoc, Name, "candidate unavailable: " + Error));
      continue;
    }
    Report.merge(compareDocs(Reference, Actual, Spec));
  }
  Report.sortBySeverity();
  return Report;
}

DiffReport hetsim::fidelityGoldens(const CheckPaths &Paths,
                                   const FidelitySet &Set) {
  // Parse each referenced artifact at most once; remember failures so a
  // missing artifact is reported per check but parsed once.
  std::map<std::string, ResultDoc> Cache;
  std::map<std::string, bool> Loaded;
  auto Lookup = [&](const std::string &Name) -> const ResultDoc * {
    auto It = Loaded.find(Name);
    if (It == Loaded.end()) {
      std::string Error;
      ResultDoc Doc;
      bool Ok = ResultDoc::load(Name, Paths.OutDir + "/" + Name, Doc, Error);
      Loaded[Name] = Ok;
      if (Ok)
        Cache[Name] = std::move(Doc);
      return Ok ? &Cache[Name] : nullptr;
    }
    return It->second ? &Cache[Name] : nullptr;
  };
  DiffReport Report = evaluateFidelity(Set, Lookup);
  Report.DocsCompared = Cache.size();
  Report.sortBySeverity();
  return Report;
}

bool hetsim::blessGoldens(const CheckPaths &Paths,
                          const std::vector<std::string> &Names,
                          std::string &Error) {
  for (const std::string &Name : Names) {
    std::string Text;
    std::string From = Paths.OutDir + "/" + Name;
    if (!readTextFile(From, Text)) {
      Error = "cannot read " + From;
      return false;
    }
    std::string To = Paths.goldenPath(Name);
    std::error_code Ec;
    std::filesystem::path Parent = std::filesystem::path(To).parent_path();
    if (!Parent.empty())
      std::filesystem::create_directories(Parent, Ec);
    if (!writeTextFile(To, Text)) {
      Error = "cannot write " + To;
      return false;
    }
  }
  return true;
}

namespace {

/// Builds the determinism sweep: every case-study system and every
/// address-space option, times the selected kernels.
std::vector<SweepPoint> determinismPoints(const std::string &KernelFilter,
                                          std::string &Error) {
  std::vector<KernelId> Kernels;
  if (KernelFilter.empty()) {
    for (KernelId Kernel : allKernels())
      Kernels.push_back(Kernel);
  } else {
    KernelId Kernel;
    if (!kernelByName(KernelFilter.c_str(), Kernel)) {
      Error = "unknown kernel '" + KernelFilter + "'";
      return {};
    }
    Kernels.push_back(Kernel);
  }

  std::vector<SystemConfig> Systems;
  for (CaseStudy Study : allCaseStudies())
    Systems.push_back(SystemConfig::forCaseStudy(Study));
  static const AddressSpaceKind Kinds[] = {
      AddressSpaceKind::Unified, AddressSpaceKind::PartiallyShared,
      AddressSpaceKind::Disjoint, AddressSpaceKind::Adsm};
  for (AddressSpaceKind Kind : Kinds)
    Systems.push_back(SystemConfig::forAddressSpaceStudy(Kind));

  std::vector<SweepPoint> Points;
  Points.reserve(Systems.size() * Kernels.size());
  for (const SystemConfig &Config : Systems)
    for (KernelId Kernel : Kernels)
      Points.emplace_back(Config, Kernel);
  return Points;
}

/// Runs the sweep with \p Jobs workers and renders both comparable
/// documents: the Figure-5-style table and the sweep metrics JSON.
void runOnce(const std::vector<SweepPoint> &Points, unsigned Jobs,
             const RunOptions &Opts, std::string &Table,
             std::string &MetricsJson) {
  SweepRunner Runner(Jobs, Opts);
  std::vector<RunResult> Results = Runner.run(Points);

  std::vector<ExperimentRow> Rows;
  Rows.reserve(Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    ExperimentRow Row;
    Row.System = Points[I].Config.Name;
    Row.Kernel = Points[I].Kernel;
    Row.Result = std::move(Results[I]);
    Rows.push_back(std::move(Row));
  }
  Table = renderFigure5(Rows).render();
  MetricsJson = renderSweepMetricsJson(Points, Runner.metrics());
}

/// Names the first line where \p A and \p B diverge.
std::string firstDivergence(const std::string &A, const std::string &B) {
  std::istringstream StreamA(A), StreamB(B);
  std::string LineA, LineB;
  unsigned LineNo = 0;
  while (true) {
    ++LineNo;
    bool GotA = static_cast<bool>(std::getline(StreamA, LineA));
    bool GotB = static_cast<bool>(std::getline(StreamB, LineB));
    if (!GotA && !GotB)
      return "documents differ in unreported whitespace";
    if (!GotA || !GotB || LineA != LineB)
      return "line " + std::to_string(LineNo) + ": serial '" +
             (GotA ? LineA : "<absent>") + "' vs parallel '" +
             (GotB ? LineB : "<absent>") + "'";
  }
}

} // namespace

DeterminismOutcome
hetsim::checkSweepDeterminism(unsigned Jobs, const std::string &KernelFilter,
                              RunOptions Opts) {
  Opts.ResultStoreDir.clear();
  DeterminismOutcome Outcome;
  if (Jobs < 2)
    Jobs = 2;
  Outcome.Jobs = Jobs;

  std::string Error;
  std::vector<SweepPoint> Points = determinismPoints(KernelFilter, Error);
  if (Points.empty()) {
    Outcome.Detail = Error.empty() ? "no sweep points" : Error;
    return Outcome;
  }
  Outcome.Points = Points.size();

  std::string SerialTable, SerialMetrics;
  runOnce(Points, 1, Opts, SerialTable, SerialMetrics);
  std::string ParallelTable, ParallelMetrics;
  runOnce(Points, Jobs, Opts, ParallelTable, ParallelMetrics);

  if (SerialTable != ParallelTable) {
    Outcome.Detail =
        "rendered table diverges: " + firstDivergence(SerialTable,
                                                      ParallelTable);
    return Outcome;
  }
  if (SerialMetrics != ParallelMetrics) {
    Outcome.Detail = "sweep metrics document diverges: " +
                     firstDivergence(SerialMetrics, ParallelMetrics);
    return Outcome;
  }
  Outcome.Ok = true;
  Outcome.Detail = "serial and jobs=" + std::to_string(Jobs) +
                   " sweeps byte-identical over " +
                   std::to_string(Points.size()) + " points (table + metrics)";
  return Outcome;
}
