//===- common/RunOptions.h - Run-wide options, read once --------*- C++ -*-===//
///
/// \file
/// Every run-wide setting the simulator honours, in one value. The tools,
/// benches and examples build it once at the top of main() with
/// RunOptions::fromEnvironment() and pass it explicitly to the simulator,
/// the sweep runner, the trace cache and the output helpers; nothing
/// below main() reads the environment. A default-constructed RunOptions
/// is the documented default run: trace cache on, hardware job count, no
/// output paths.
///
///   HETSIM_JOBS          unset or 0 (hardware threads), or a positive
///                        integer: sweep worker count
///   HETSIM_TRACE_CACHE   unset or "1" (on), or "0" (bypass)
///   HETSIM_RESULT_STORE  result-store root directory
///   HETSIM_METRICS_JSON  sweep metrics document path
///   HETSIM_TIMING_JSON   bench timing log (default out/bench_timing.json)
///   HETSIM_TRACE_EVENTS  Chrome trace-event output directory
///   HETSIM_CSV_DIR       CSV export directory of the experiment tables
///
/// An empty value counts as unset. Any other value of the first two is a
/// fatal error naming the accepted values.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_RUNOPTIONS_H
#define HETSIM_COMMON_RUNOPTIONS_H

#include <functional>
#include <string>

namespace hetsim {

struct RunOptions {
  /// Sweep worker count; 0 means hardware_concurrency().
  unsigned Jobs = 0;
  /// Share generated traces across runs through the trace cache.
  bool TraceCache = true;
  std::string ResultStoreDir;  ///< Empty: no result store.
  std::string MetricsJsonPath; ///< Empty: no sweep metrics document.
  std::string TimingJsonPath;  ///< Empty: out/bench_timing.json.
  std::string TraceEventsDir;  ///< Empty: no trace-event files.
  std::string CsvDir;          ///< Empty: no CSV export.
  /// Lower to fully materialized traces and run them through the
  /// per-record reference path instead of windowed block expansion.
  /// Results are identical by construction; only the differential tests
  /// set this, and no environment variable does.
  bool MaterializedReference = false;

  /// Reads the HETSIM_* variables above. Calls fatalError on a value the
  /// rules above reject.
  static RunOptions fromEnvironment();

  /// Same, with \p Lookup standing in for the process environment.
  static RunOptions
  parse(const std::function<const char *(const char *Name)> &Lookup);
};

} // namespace hetsim

#endif // HETSIM_COMMON_RUNOPTIONS_H
