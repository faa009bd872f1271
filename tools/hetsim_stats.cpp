//===- tools/hetsim_stats.cpp - Metrics artifact inspector ----------------===//
///
/// \file
/// Validates and summarizes the metrics JSON artifacts the simulator
/// emits (`hetsim run --metrics out.json`, or a sweep dump named by
/// $HETSIM_METRICS_JSON). The single-run "hetsim-metrics-v1", the sweep
/// "hetsim-sweep-metrics-v1", and the linter's "hetsim-lint-v1"
/// (`hetsim_lint --json`) schemas are all accepted.
///
/// usage:
///   hetsim_stats validate <file.json>            schema check only
///   hetsim_stats show <file.json> [--prefix p]   print metric values
///   hetsim_stats audit <file.json>               conservation verdicts
///
/// Exit status is nonzero on unreadable files, schema violations, and
/// (for audit) any point whose run.conservation_ok is not 1 — or, for a
/// lint document, any error, race, or disagreement — so CI can gate on
/// it directly.
///
//===----------------------------------------------------------------------===//

#include "analysis/LintJson.h"
#include "obs/Json.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace hetsim;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hetsim_stats validate <file.json>\n"
               "  hetsim_stats show <file.json> [--prefix <dotted.prefix>]\n"
               "  hetsim_stats audit <file.json>\n");
  return 2;
}

/// One labelled metrics object out of either schema.
struct PointView {
  std::string Label;
  const JsonValue *Metrics = nullptr;
};

/// True when \p Text carries the linter's diagnostics schema rather than
/// a metrics document.
bool isLintDocument(const std::string &Text) {
  JsonValue Doc;
  std::string Error;
  if (!parseJson(Text, Doc, Error))
    return false;
  const JsonValue *Schema = Doc.find("schema");
  return Schema && Schema->isString() &&
         Schema->StringValue == "hetsim-lint-v1";
}

/// Prints per-point lint verdicts; returns the number of points with
/// errors, races, or disagreements.
size_t summarizeLintPoints(const JsonValue &Doc) {
  size_t Dirty = 0;
  const JsonValue *Points = Doc.find("points");
  for (const JsonValue &Point : Points->Elements) {
    std::string Label = Point.find("system")->StringValue + " /";
    for (const JsonValue &Kernel : Point.find("kernels")->Elements)
      Label += " " + Kernel.StringValue;
    uint64_t Errors = uint64_t(Point.find("errors")->NumberValue);
    uint64_t Warnings = uint64_t(Point.find("warnings")->NumberValue);
    uint64_t Races = uint64_t(Point.find("race_count")->NumberValue);
    bool Disagrees = Point.find("disagreement")->BoolValue;
    if (Errors != 0 || Races != 0 || Disagrees)
      ++Dirty;
    std::printf("%-40s %llu error(s), %llu warning(s), %llu race(s)%s\n",
                Label.c_str(), (unsigned long long)Errors,
                (unsigned long long)Warnings, (unsigned long long)Races,
                Disagrees ? ", DISAGREEMENT" : "");
  }
  return Dirty;
}

/// Loads a "hetsim-lint-v1" document; \p Audit additionally fails on any
/// error/race/disagreement.
int handleLintDocument(const std::string &Path, const std::string &Text,
                       bool Verbose, bool Audit) {
  std::string Error;
  if (!validateLintJson(Text, Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return 1;
  }
  JsonValue Doc;
  parseJson(Text, Doc, Error);
  size_t Dirty = Verbose || Audit ? summarizeLintPoints(Doc) : 0;
  const JsonValue *Summary = Doc.find("summary");
  std::printf("%s: valid lint document (%g points, %g errors, %g "
              "warnings, %g races, %g disagreements)\n",
              Path.c_str(), Summary->find("points")->NumberValue,
              Summary->find("errors")->NumberValue,
              Summary->find("warnings")->NumberValue,
              Summary->find("races")->NumberValue,
              Summary->find("disagreements")->NumberValue);
  return Audit && Dirty != 0 ? 1 : 0;
}

/// Loads \p Path, schema-checks it, and flattens it to labelled points.
/// Returns false after printing a diagnostic.
bool loadPoints(const std::string &Path, JsonValue &Doc,
                std::vector<PointView> &Points) {
  std::string Text;
  if (!readTextFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return false;
  }
  std::string Error;
  if (!validateMetricsJson(Text, Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }
  // validateMetricsJson already parsed successfully; parse again for the DOM.
  if (!parseJson(Text, Doc, Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }

  if (const JsonValue *Metrics = Doc.find("metrics")) {
    Points.push_back({"run", Metrics});
    return true;
  }
  const JsonValue *Sweep = Doc.find("points");
  for (size_t I = 0; I != Sweep->Elements.size(); ++I) {
    const JsonValue &Point = Sweep->Elements[I];
    std::string Label = "point " + std::to_string(I);
    const JsonValue *System = Point.find("system");
    const JsonValue *Kernel = Point.find("kernel");
    if (System && System->isString() && Kernel && Kernel->isString())
      Label = System->StringValue + " / " + Kernel->StringValue;
    Points.push_back({Label, Point.find("metrics")});
  }
  return true;
}

int cmdValidate(const std::string &Path) {
  std::string Text;
  if (readTextFile(Path, Text) && isLintDocument(Text))
    return handleLintDocument(Path, Text, /*Verbose=*/false,
                              /*Audit=*/false);
  JsonValue Doc;
  std::vector<PointView> Points;
  if (!loadPoints(Path, Doc, Points))
    return 1;
  std::printf("%s: valid (%zu point%s)\n", Path.c_str(), Points.size(),
              Points.size() == 1 ? "" : "s");
  return 0;
}

/// Memory fidelity tier, printed after a point's metrics when
/// memfast.mode is present. Every current run is exact (memfast.mode 1);
/// any other value comes from an older build and is reported as unknown.
/// Counters of other memfast.* names (older builds wrote fold and
/// coverage counters) are listed with the metrics but not summarized.
void summarizeFidelity(const JsonValue &Metrics) {
  const JsonValue *Mode = Metrics.find("memfast.mode");
  if (!Mode || !Mode->isNumber())
    return;
  if (Mode->NumberValue == 1)
    std::printf("  fidelity tier: exact\n");
  else
    std::printf("  fidelity tier: unknown (memfast.mode %g)\n",
                Mode->NumberValue);
}

int cmdShow(const std::string &Path, const std::string &Prefix) {
  std::string Text;
  if (readTextFile(Path, Text) && isLintDocument(Text))
    return handleLintDocument(Path, Text, /*Verbose=*/true,
                              /*Audit=*/false);
  JsonValue Doc;
  std::vector<PointView> Points;
  if (!loadPoints(Path, Doc, Points))
    return 1;
  for (const PointView &View : Points) {
    std::printf("%s:\n", View.Label.c_str());
    size_t Shown = 0;
    for (const auto &Member : View.Metrics->Members) {
      if (!Prefix.empty() &&
          Member.first.compare(0, Prefix.size(), Prefix) != 0)
        continue;
      ++Shown;
      if (Member.second.isNumber())
        std::printf("  %-44s %.6g\n", Member.first.c_str(),
                    Member.second.NumberValue);
      else
        std::printf("  %-44s null\n", Member.first.c_str());
    }
    if (Shown == 0)
      std::printf("  (no metrics%s%s)\n",
                  Prefix.empty() ? "" : " matching prefix ",
                  Prefix.c_str());
    if (Prefix.empty() || Prefix.compare(0, 7, "memfast") == 0)
      summarizeFidelity(*View.Metrics);
  }
  return 0;
}

int cmdAudit(const std::string &Path) {
  std::string Text;
  if (readTextFile(Path, Text) && isLintDocument(Text))
    return handleLintDocument(Path, Text, /*Verbose=*/true,
                              /*Audit=*/true);
  JsonValue Doc;
  std::vector<PointView> Points;
  if (!loadPoints(Path, Doc, Points))
    return 1;
  size_t Violations = 0;
  for (const PointView &View : Points) {
    const JsonValue *Ok = View.Metrics->find("run.conservation_ok");
    bool Pass = Ok && Ok->isNumber() && Ok->NumberValue != 0;
    if (!Pass)
      ++Violations;
    std::printf("%-40s conservation %s\n", View.Label.c_str(),
                !Ok ? "UNKNOWN (metric missing)"
                    : (Pass ? "ok" : "VIOLATED"));
  }
  std::printf("%zu/%zu points conserve DRAM traffic\n",
              Points.size() - Violations, Points.size());
  return Violations == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Command = Argv[1];
  std::string Path = Argv[2];
  if (Command == "validate" && Argc == 3)
    return cmdValidate(Path);
  if (Command == "show") {
    std::string Prefix;
    if (Argc == 5 && std::strcmp(Argv[3], "--prefix") == 0)
      Prefix = Argv[4];
    else if (Argc != 3)
      return usage();
    return cmdShow(Path, Prefix);
  }
  if (Command == "audit" && Argc == 3)
    return cmdAudit(Path);
  return usage();
}
