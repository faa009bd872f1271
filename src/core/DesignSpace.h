//===- core/DesignSpace.h - The memory-model design space -------*- C++ -*-===//
///
/// \file
/// Enumerations spanning the design space the paper explores: memory
/// address spaces (Section II-A), hardware connections, coherence and
/// consistency support, and locality-management schemes (Section II-B).
/// Table I classifies existing systems along exactly these axes.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_CORE_DESIGNSPACE_H
#define HETSIM_CORE_DESIGNSPACE_H

#include "memory/AddressSpaceModel.h"

namespace hetsim {

/// Physical connection between the PUs (Table I "Connection").
enum class ConnectionKind : uint8_t {
  PciExpress,
  MemoryController,
  Interconnection,
  CacheFsb,
  Bus,
  None,
};

const char *connectionName(ConnectionKind Kind);

/// Coherence support (Table I "coherence").
enum class CoherenceKind : uint8_t {
  None,
  HardwareDirectory, ///< Full hardware directory (e.g. COMIC's directory).
  HardwareOrSoftware,///< Hybrid HW/SW (Rigel/Cohesion style).
  RuntimeProtocol,   ///< Software runtime protocol (GMAC).
  OneSideOnly,       ///< Coherent only within one PU's domain (LRB/CPU).
  Possible,          ///< Architecture permits coherence (EXOCHI).
};

const char *coherenceName(CoherenceKind Kind);

/// Consistency model (Table I "consistency").
enum class ConsistencyKind : uint8_t {
  Weak,
  CentralizedRelease,
  Strong,
  Unspecified,
};

const char *consistencyName(ConsistencyKind Kind);

/// Locality management of one storage level (Section II-B): implicit
/// (hardware/runtime) or explicit (programmer/compiler).
enum class LocalityMgmt : uint8_t {
  Implicit,
  Explicit,
};

const char *localityMgmtName(LocalityMgmt Mgmt);

/// How the shared level manages locality (the second-level cache in the
/// paper's discussion). Hybrid is Section II-B5: the shared cache serves
/// implicit and explicit blocks simultaneously.
enum class SharedLocality : uint8_t {
  NoSharedLevel, ///< Disjoint spaces: only private caches exist.
  Implicit,
  Explicit,
  Hybrid,
};

const char *sharedLocalityName(SharedLocality Kind);

/// A full locality-management scheme: per-PU private policy plus the
/// shared level (Sections II-B1 .. II-B5).
struct LocalityScheme {
  LocalityMgmt CpuPrivate = LocalityMgmt::Implicit;
  LocalityMgmt GpuPrivate = LocalityMgmt::Implicit;
  SharedLocality Shared = SharedLocality::Implicit;

  bool operator==(const LocalityScheme &) const = default;

  /// True if the two PUs use different private schemes (the
  /// "implicit-private-explicit-private-*" options of II-B3/II-B4).
  bool mixedPrivate() const { return CpuPrivate != GpuPrivate; }

  /// Renders e.g. "impl-pri/expl-pri/impl-shared".
  std::string render() const;
};

/// Returns the locality-scheme combinations Section II-B enumerates, in
/// presentation order (II-B1 through II-B5 plus the uniform baselines).
const std::vector<LocalityScheme> &canonicalLocalitySchemes();

/// Counts the locality-management options an address space admits; the
/// paper's conclusion 3 is that the partially shared space admits the
/// most.
unsigned localityOptionCount(AddressSpaceKind Kind);

} // namespace hetsim

#endif // HETSIM_CORE_DESIGNSPACE_H
