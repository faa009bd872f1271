//===- common/RunOptions.cpp ----------------------------------------------===//

#include "common/RunOptions.h"

#include "common/Error.h"
#include "common/StringUtil.h"

#include <climits>
#include <cstdlib>
#include <cstring>
#include <optional>

using namespace hetsim;

namespace {

/// Parses a job count: unset or empty is 0, else decimal digits only, at
/// most UINT_MAX.
std::optional<unsigned> parseJobs(const char *Value) {
  if (!Value || !*Value)
    return 0u;
  std::optional<uint64_t> Jobs = parseDecimal(Value, UINT_MAX);
  if (!Jobs)
    return std::nullopt;
  return unsigned(*Jobs);
}

} // namespace

RunOptions RunOptions::fromEnvironment() {
  return parse([](const char *Name) { return std::getenv(Name); });
}

RunOptions RunOptions::parse(
    const std::function<const char *(const char *Name)> &Lookup) {
  RunOptions Opts;
  std::optional<unsigned> Jobs = parseJobs(Lookup("HETSIM_JOBS"));
  if (!Jobs)
    fatalError("HETSIM_JOBS must be unset, 0 (hardware threads) or a "
               "positive integer");
  Opts.Jobs = *Jobs;

  const char *Cache = Lookup("HETSIM_TRACE_CACHE");
  if (Cache && *Cache && std::strcmp(Cache, "1") != 0 &&
      std::strcmp(Cache, "0") != 0)
    fatalError("HETSIM_TRACE_CACHE must be unset, '1' or '0'");
  Opts.TraceCache = !Cache || std::strcmp(Cache, "0") != 0;

  auto Path = [&](const char *Name) {
    const char *Value = Lookup(Name);
    return Value ? std::string(Value) : std::string();
  };
  Opts.ResultStoreDir = Path("HETSIM_RESULT_STORE");
  Opts.MetricsJsonPath = Path("HETSIM_METRICS_JSON");
  Opts.TimingJsonPath = Path("HETSIM_TIMING_JSON");
  Opts.TraceEventsDir = Path("HETSIM_TRACE_EVENTS");
  Opts.CsvDir = Path("HETSIM_CSV_DIR");
  return Opts;
}
