//===- obs/TraceEvents.h - Chrome trace-event timeline ----------*- C++ -*-===//
///
/// \file
/// A bounded in-memory timeline of simulated activity, exported in the
/// Chrome trace-event JSON format (load the file in chrome://tracing or
/// Perfetto). Tracks are rendered as named threads of one process:
/// kernel phases on the cpu/gpu tracks, explicit copies on the fabric
/// track, background-queue drains on the dram track, coherence traffic
/// on its own track, and driver/runtime overheads (ownership, faults) on
/// the driver track.
///
/// Recording is cheap (no allocation past the reserved cap); files are
/// written when RunOptions::TraceEventsDir (`HETSIM_TRACE_EVENTS`) names
/// an output *directory*: parallel sweep workers each write their own
/// `<dir>/<run>.trace.json` file, so no cross-thread file clobbering.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_OBS_TRACEEVENTS_H
#define HETSIM_OBS_TRACEEVENTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace hetsim {

/// Which timeline row an event belongs to.
enum class TraceTrack : uint8_t { Cpu, Gpu, Fabric, Dram, Coherence, Driver };

constexpr unsigned NumTraceTracks = 6;

/// Stable lowercase track name ("cpu", "fabric", ...).
const char *traceTrackName(TraceTrack Track);

/// An append-only event log. All timestamps are microseconds of
/// simulated time (the trace-event format's native unit).
class TraceEventLog {
public:
  /// Hard cap on retained events; later events are counted as dropped
  /// rather than grown without bound (long sweeps, tight memory).
  static constexpr size_t MaxEvents = 1u << 16;

  /// Records one complete ("ph":"X") event.
  void complete(TraceTrack Track, std::string Name, double StartUs,
                double DurUs);

  /// Records one complete event carrying a single numeric argument
  /// (e.g. bytes moved, lines drained).
  void complete(TraceTrack Track, std::string Name, double StartUs,
                double DurUs, std::string ArgKey, uint64_t ArgValue);

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  uint64_t dropped() const { return Dropped; }
  void clear();

  /// Renders the full Chrome trace-event document. \p ProcessName labels
  /// the process row (typically "<system>/<kernel>").
  std::string renderChromeJson(const std::string &ProcessName) const;

  /// Renders and writes the document to \p Path. Returns false on I/O
  /// failure.
  bool writeFile(const std::string &Path,
                 const std::string &ProcessName) const;

private:
  struct Event {
    std::string Name;
    std::string ArgKey; ///< Empty when the event has no argument.
    double StartUs = 0;
    double DurUs = 0;
    uint64_t ArgValue = 0;
    TraceTrack Track = TraceTrack::Cpu;
  };

  std::vector<Event> Events;
  uint64_t Dropped = 0;
};

/// `<Dir>/<RunName>.trace.json`, with characters outside [A-Za-z0-9._-]
/// in \p RunName replaced by '_'. Empty when \p Dir is empty.
std::string traceEventPath(const std::string &Dir, const std::string &RunName);

} // namespace hetsim

#endif // HETSIM_OBS_TRACEEVENTS_H
