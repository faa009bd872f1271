//===- tests/run_options_test.cpp - RunOptions parsing and plumbing -------===//
///
/// \file
/// Every HETSIM_* knob is parsed once, by RunOptions. These tests pin the
/// accepted values of each knob, the fatal error on anything else, that
/// a default-constructed RunOptions is the documented default run, and
/// that the options reach the trace cache and the sweep runner.
///
//===----------------------------------------------------------------------===//

#include "common/RunOptions.h"
#include "core/SweepRunner.h"
#include "trace/TraceCache.h"

#include "gtest/gtest.h"

#include <climits>
#include <cstdlib>
#include <map>
#include <string>

using namespace hetsim;

namespace {

/// Parses \p Vars as if they were the whole environment.
RunOptions parseVars(const std::map<std::string, std::string> &Vars) {
  return RunOptions::parse([&](const char *Name) -> const char * {
    auto It = Vars.find(Name);
    return It == Vars.end() ? nullptr : It->second.c_str();
  });
}

RunOptions parseOne(const char *Name, const char *Value) {
  return parseVars({{Name, Value}});
}

} // namespace

TEST(RunOptionsParse, EmptyEnvironmentIsTheDefaultRun) {
  RunOptions Parsed = parseVars({});
  RunOptions Default;
  for (const RunOptions *O : {&Parsed, &Default}) {
    EXPECT_EQ(O->Jobs, 0u);
    EXPECT_TRUE(O->TraceCache);
    EXPECT_TRUE(O->ResultStoreDir.empty());
    EXPECT_TRUE(O->MetricsJsonPath.empty());
    EXPECT_TRUE(O->TimingJsonPath.empty());
    EXPECT_TRUE(O->TraceEventsDir.empty());
    EXPECT_TRUE(O->CsvDir.empty());
    EXPECT_FALSE(O->MaterializedReference);
  }
}

TEST(RunOptionsParse, JobsAcceptsZeroAndPositiveIntegers) {
  EXPECT_EQ(parseOne("HETSIM_JOBS", "").Jobs, 0u);
  EXPECT_EQ(parseOne("HETSIM_JOBS", "0").Jobs, 0u);
  EXPECT_EQ(parseOne("HETSIM_JOBS", "1").Jobs, 1u);
  EXPECT_EQ(parseOne("HETSIM_JOBS", "12").Jobs, 12u);
  EXPECT_EQ(parseOne("HETSIM_JOBS", "4294967295").Jobs, UINT_MAX);
}

TEST(RunOptionsParseDeath, JobsRejectsEverythingElse) {
  for (const char *Bad : {"abc", "not-a-number", "-1", "+3", " 3", "3 ",
                          "1.5", "0x4", "4294967296"})
    EXPECT_DEATH(parseOne("HETSIM_JOBS", Bad),
                 "HETSIM_JOBS must be unset, 0 \\(hardware threads\\) or a "
                 "positive integer")
        << Bad;
}

TEST(RunOptionsParse, TraceCacheAcceptsOneAndZero) {
  EXPECT_TRUE(parseOne("HETSIM_TRACE_CACHE", "").TraceCache);
  EXPECT_TRUE(parseOne("HETSIM_TRACE_CACHE", "1").TraceCache);
  EXPECT_FALSE(parseOne("HETSIM_TRACE_CACHE", "0").TraceCache);
}

TEST(RunOptionsParseDeath, TraceCacheRejectsEverythingElse) {
  for (const char *Bad : {"false", "off", "on", "true", "00", "2", " 0"})
    EXPECT_DEATH(parseOne("HETSIM_TRACE_CACHE", Bad),
                 "HETSIM_TRACE_CACHE must be unset, '1' or '0'")
        << Bad;
}

TEST(RunOptionsParse, PathsAreTakenVerbatim) {
  RunOptions O = parseVars({{"HETSIM_RESULT_STORE", "store dir"},
                            {"HETSIM_METRICS_JSON", "m.json"},
                            {"HETSIM_TIMING_JSON", "/x/t.json"},
                            {"HETSIM_TRACE_EVENTS", "traces"},
                            {"HETSIM_CSV_DIR", "csv"}});
  EXPECT_EQ(O.ResultStoreDir, "store dir");
  EXPECT_EQ(O.MetricsJsonPath, "m.json");
  EXPECT_EQ(O.TimingJsonPath, "/x/t.json");
  EXPECT_EQ(O.TraceEventsDir, "traces");
  EXPECT_EQ(O.CsvDir, "csv");
}

TEST(RunOptionsParse, FromEnvironmentReadsTheProcessEnvironment) {
  ::setenv("HETSIM_JOBS", "5", 1);
  ::setenv("HETSIM_TRACE_CACHE", "0", 1);
  ::setenv("HETSIM_CSV_DIR", "csv", 1);
  RunOptions O = RunOptions::fromEnvironment();
  ::unsetenv("HETSIM_JOBS");
  ::unsetenv("HETSIM_TRACE_CACHE");
  ::unsetenv("HETSIM_CSV_DIR");
  EXPECT_EQ(O.Jobs, 5u);
  EXPECT_FALSE(O.TraceCache);
  EXPECT_EQ(O.CsvDir, "csv");
}

TEST(RunOptionsPlumbing, TraceCacheOptionSelectsTheTraceSource) {
  TraceCache &Cache = TraceCache::global();
  Cache.clear();
  KernelDataLayout Layout = KernelDataLayout::makeLinear(
      KernelId::Reduction, region::CpuPrivateBase);
  GenRequest Req;
  Req.Pu = PuKind::Cpu;
  Req.InstCount = 4096;

  // Default: one cached recipe per key.
  RunOptions Cached;
  SharedTrace A = Cache.computeShared(KernelId::Reduction, Req, Layout, Cached);
  SharedTrace B = Cache.computeShared(KernelId::Reduction, Req, Layout, Cached);
  ASSERT_NE(A.blocks(), nullptr);
  EXPECT_EQ(A.blocks(), B.blocks());
  EXPECT_EQ(Cache.stats().Misses, 1u);

  // Bypass: a fresh recipe per request, invisible to the cache.
  RunOptions Bypass;
  Bypass.TraceCache = false;
  SharedTrace C = Cache.computeShared(KernelId::Reduction, Req, Layout, Bypass);
  ASSERT_NE(C.blocks(), nullptr);
  EXPECT_NE(C.blocks(), A.blocks());
  EXPECT_EQ(Cache.stats().lookups(), 2u);

  // Reference: the materialized record stream.
  RunOptions Reference;
  Reference.MaterializedReference = true;
  SharedTrace D =
      Cache.computeShared(KernelId::Reduction, Req, Layout, Reference);
  EXPECT_EQ(D.blocks(), nullptr);
  EXPECT_EQ(D.buffer().size(), Req.InstCount);
  Cache.clear();
}

TEST(RunOptionsPlumbing, SweepRunnerJobsSource) {
  RunOptions FromEnv;
  FromEnv.Jobs = 3;
  SweepRunner Explicit(2, FromEnv), Configured(0, FromEnv), Hardware;
  EXPECT_EQ(Explicit.jobs(), 2u);
  EXPECT_EQ(Configured.jobs(), 3u);
  EXPECT_GE(Hardware.jobs(), 1u);
  const std::pair<SweepRunner *, const char *> Want[] = {
      {&Explicit, "explicit"},
      {&Configured, "HETSIM_JOBS"},
      {&Hardware, "hardware"}};
  for (const auto &[Runner, Source] : Want) {
    Runner->run({});
    EXPECT_EQ(Runner->telemetry().JobsSource, Source);
  }
}
