//===- common/Stats.h - Named statistics registry ---------------*- C++ -*-===//
///
/// \file
/// Named counters and distributions. Every hardware model exposes its
/// activity (hits, misses, stalls, transfers) through a StatRegistry so
/// experiments can report and tests can assert on exact behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMMON_STATS_H
#define HETSIM_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetsim {

/// A power-of-two-bucketed histogram of unsigned samples (latencies,
/// queue depths). Bucket B counts samples whose value has B significant
/// bits (bucket 0 holds zeros), so 33 buckets cover the full 32-bit
/// latency range with O(1) insertion and no allocation. Obtained once
/// through StatRegistry::histogramRef() and fed through the returned
/// reference, it adds no per-sample string hashing on hot paths.
class StatHistogram {
public:
  static constexpr unsigned NumBuckets = 33;

  void addSample(uint64_t Value);
  void reset();

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count == 0 ? 0 : Min; }
  uint64_t max() const { return Max; }
  double mean() const { return Count == 0 ? 0.0 : double(Sum) / double(Count); }
  uint64_t bucket(unsigned Index) const {
    return Index < NumBuckets ? Buckets[Index] : 0;
  }
  /// Smallest value v such that at least Fraction of samples are <= the
  /// upper edge of v's bucket (a coarse, bucket-resolution percentile).
  uint64_t approxPercentile(double Fraction) const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0;
  uint64_t Max = 0;
};

/// A streaming distribution: count, sum, min, max, mean.
class StatDistribution {
public:
  void addSample(double Value);
  void reset();

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double min() const { return Count == 0 ? 0.0 : Min; }
  double max() const { return Count == 0 ? 0.0 : Max; }
  double mean() const { return Count == 0 ? 0.0 : Sum / double(Count); }

private:
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

/// A registry of named counters and distributions.
///
/// Counter names are dotted lowercase strings ("l1d.miss", "dram.reads").
/// Reading a counter that was never incremented returns zero.
class StatRegistry {
public:
  /// Adds \p Delta to counter \p Name.
  void increment(const std::string &Name, uint64_t Delta = 1);

  /// Returns a stable reference to counter \p Name (created at zero if
  /// absent). Components register their hot counters once and bump the
  /// returned reference directly, so per-access paths never hash a
  /// string. References stay valid until reset() — std::map nodes do not
  /// move.
  uint64_t &counterRef(const std::string &Name);

  /// Returns a stable reference to histogram \p Name (created empty if
  /// absent). Same registration-time contract as counterRef().
  StatHistogram &histogramRef(const std::string &Name);

  /// Returns the histogram \p Name (an empty one if absent).
  const StatHistogram &histogram(const std::string &Name) const;

  /// Returns all histogram names in sorted order.
  std::vector<std::string> histogramNames() const;

  /// Sets counter \p Name to an absolute value.
  void setCounter(const std::string &Name, uint64_t Value);

  /// Returns the value of counter \p Name (0 if absent).
  uint64_t counter(const std::string &Name) const;

  /// Adds a sample to distribution \p Name.
  void addSample(const std::string &Name, double Value);

  /// Returns the distribution \p Name (an empty one if absent).
  const StatDistribution &distribution(const std::string &Name) const;

  /// Returns all counter names in sorted order.
  std::vector<std::string> counterNames() const;

  /// Returns all counters whose name starts with \p Prefix.
  std::vector<std::pair<std::string, uint64_t>>
  countersWithPrefix(const std::string &Prefix) const;

  /// Resets all counters and distributions.
  void reset();

  /// Renders "name = value" lines, one per counter, sorted by name.
  std::string renderCounters() const;

private:
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, StatDistribution> Distributions;
  std::map<std::string, StatHistogram> Histograms;
  StatDistribution EmptyDistribution;
  StatHistogram EmptyHistogram;
};

/// Process-wide registry for infrastructure (non-model) statistics:
/// trace-cache hit rates, harness telemetry. Model statistics live in each
/// simulation's own registry; this one aggregates cross-run machinery and
/// is NOT thread-safe for concurrent mutation — publish into it from the
/// coordinating thread (e.g. after a sweep joins its workers).
StatRegistry &processStats();

} // namespace hetsim

#endif // HETSIM_COMMON_STATS_H
