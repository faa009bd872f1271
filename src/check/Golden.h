//===- check/Golden.h - Golden refs, blessing, determinism ------*- C++ -*-===//
///
/// \file
/// The driver layer of the check subsystem, shared by the `hetsim_check`
/// CLI and the tests. The `refs/` directory is laid out as:
///
///   refs/MANIFEST          one artifact name per line ('#' comments)
///   refs/tolerances.cfg    ToleranceSpec for golden diffs
///   refs/golden/<name>     blessed copy of each manifest artifact
///   refs/paper/fidelity.cfg paper-expected values and trends
///
/// `diffGoldens` parses each manifest artifact from the candidate output
/// directory and from `refs/golden/`, and compares them per metric.
/// `blessGoldens` copies the candidate artifacts over the goldens after
/// an intended change. `checkSweepDeterminism` runs the same design-space
/// sweep serially and with N workers and byte-compares both the rendered
/// table and the `hetsim-sweep-metrics-v1` document, enforcing the sweep
/// engine's job-count-invariance contract.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CHECK_GOLDEN_H
#define HETSIM_CHECK_GOLDEN_H

#include "check/Compare.h"
#include "check/Fidelity.h"
#include "common/RunOptions.h"

#include <string>
#include <vector>

namespace hetsim {

/// Where a check run reads from.
struct CheckPaths {
  std::string OutDir = "out";   ///< Candidate artifacts.
  std::string RefsDir = "refs"; ///< Reference tree (layout above).

  std::string manifestPath() const { return RefsDir + "/MANIFEST"; }
  std::string tolerancesPath() const { return RefsDir + "/tolerances.cfg"; }
  std::string goldenPath(const std::string &Name) const {
    return RefsDir + "/golden/" + Name;
  }
  std::string fidelityPath() const {
    return RefsDir + "/paper/fidelity.cfg";
  }
};

/// Reads a manifest: one artifact name per line, '#' comments. Returns
/// false and sets \p Error when unreadable or empty.
bool loadManifest(const std::string &Path, std::vector<std::string> &Names,
                  std::string &Error);

/// Diffs every manifest artifact in \p Paths.OutDir against its golden,
/// with \p Spec. Unreadable or malformed files surface as MissingDoc /
/// ParseError entries; the report comes back ranked.
DiffReport diffGoldens(const CheckPaths &Paths,
                       const std::vector<std::string> &Names,
                       const ToleranceSpec &Spec);

/// Evaluates \p Set against the artifacts in \p Paths.OutDir (parsed on
/// demand, each at most once). The report comes back ranked.
DiffReport fidelityGoldens(const CheckPaths &Paths, const FidelitySet &Set);

/// Copies every manifest artifact from \p Paths.OutDir over its golden,
/// creating `refs/golden/` as needed. Returns false and sets \p Error on
/// the first artifact that cannot be read or written.
bool blessGoldens(const CheckPaths &Paths,
                  const std::vector<std::string> &Names, std::string &Error);

/// Outcome of a determinism probe.
struct DeterminismOutcome {
  bool Ok = false;
  uint64_t Points = 0;   ///< Sweep points per run.
  unsigned Jobs = 0;     ///< Worker count of the parallel run.
  std::string Detail;    ///< First divergence, or a summary when Ok.
};

/// Runs the full design-space sweep (all case-study systems plus all
/// address-space options, times every kernel — or just \p KernelFilter
/// when non-empty) once serially and once with \p Jobs workers, and
/// byte-compares the rendered Figure-5-style table and the sweep metrics
/// document. \p Jobs of 0 or 1 is promoted to 2 so the probe is real.
/// Both runs simulate under \p Opts, minus its result store, which would
/// serve the parallel run from the serial run's entries.
DeterminismOutcome checkSweepDeterminism(unsigned Jobs,
                                         const std::string &KernelFilter,
                                         RunOptions Opts);

} // namespace hetsim

#endif // HETSIM_CHECK_GOLDEN_H
