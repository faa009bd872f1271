//===- comm/CommParams.h - Table IV communication parameters ----*- C++ -*-===//
///
/// \file
/// The communication-overhead parameters of Table IV. All latencies are in
/// CPU (3.5GHz) cycles; api-pci additionally charges bytes at the PCI-E 2.0
/// rate (16GB/s). Experiments sweep these through ConfigStore keys
/// ("comm.api_pci_base", "comm.api_acq", "comm.api_tr", "comm.lib_pf",
/// "comm.pci_bytes_per_sec").
///
/// Every field is private and read through get<F>(), which records F in
/// readMask(). A simulator reading its own copy this way knows exactly
/// which parameters its run depended on; SweepRunner reuses a finished
/// run for any later point that agrees on those fields (core/SweepRunner.h).
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_COMM_COMMPARAMS_H
#define HETSIM_COMM_COMMPARAMS_H

#include "common/Config.h"
#include "common/Types.h"

#include <tuple>
#include <utility>

namespace hetsim {

/// The Table IV fields, in CommParams storage order.
enum class CommField : unsigned {
  /// api-pci: fixed cost of a PCI-E memcpy API call.
  ApiPciBase,
  /// trans_rate: PCI-E 2.0 payload bandwidth (bytes/s).
  PciBytesPerSec,
  /// api-acq: ownership acquire action (LRB).
  ApiAcquire,
  /// api-tr: data transfer through the PCI aperture (LRB).
  ApiTransfer,
  /// lib-pf: page-fault handling in the shared space (LRB).
  LibPageFault,
  /// Issue overhead of starting an asynchronous copy (GMAC).
  AsyncIssueOverhead,
  /// Host buffers are pinned (page-locked). Pageable buffers force the
  /// driver to stage through an internal pinned buffer: lower effective
  /// bandwidth plus a fixed staging cost per copy. CUDA's classic
  /// pinned-vs-pageable distinction; Table IV's numbers assume pinned.
  PinnedHostMemory,
  PageableRateFactor,
  PageableStagingOverhead,
};
inline constexpr unsigned NumCommFields = 9;

/// One bit per CommField: the fields a run read.
using CommReadMask = uint16_t;

/// Table IV defaults. A read writes the instance's read mask, so one
/// CommParams must not be read from two threads at once; give each
/// thread its own copy (each sweep worker copies its SystemConfig).
class CommParams {
  using Tuple =
      std::tuple<Cycle, double, Cycle, Cycle, Cycle, Cycle, bool, double, Cycle>;
  static_assert(std::tuple_size_v<Tuple> == NumCommFields);

public:
  /// The value type of field \p F.
  template <CommField F>
  using Type = std::tuple_element_t<size_t(F), Tuple>;

  /// The ConfigStore key of each field, in CommField order.
  static constexpr const char *Keys[NumCommFields] = {
      "comm.api_pci_base",     "comm.pci_bytes_per_sec",
      "comm.api_acq",          "comm.api_tr",
      "comm.lib_pf",           "comm.async_issue",
      "comm.pinned_host",      "comm.pageable_rate_factor",
      "comm.pageable_staging"};

  static constexpr CommReadMask bit(CommField F) {
    return CommReadMask(1u << unsigned(F));
  }

  /// Reads field \p F and records the read in readMask(). The only way
  /// to read a field.
  template <CommField F> Type<F> get() const {
    Reads |= bit(F);
    return std::get<size_t(F)>(Values);
  }
  template <CommField F> void set(Type<F> Value) {
    std::get<size_t(F)>(Values) = Value;
  }

  /// Fields read through get() since construction or clearReads().
  CommReadMask readMask() const { return Reads; }
  void clearReads() { Reads = 0; }

  /// True if this and \p Other hold equal values in every field of
  /// \p Mask. Identity check only: records nothing.
  bool agreesOn(const CommParams &Other, CommReadMask Mask) const {
    return agreesOn(Other, Mask, std::make_index_sequence<NumCommFields>());
  }

  /// Equal in every field (the read mask is not part of the identity).
  bool operator==(const CommParams &Other) const {
    return Values == Other.Values;
  }

  /// Calls \p Visit(Key, Value) for every field in CommField order, reading
  /// each through get().
  template <typename Fn> void visit(Fn &&Visit) const {
    visit(Visit, std::make_index_sequence<NumCommFields>());
  }

  /// Cycles a synchronous PCI-E copy of \p Bytes takes (honours the
  /// pinned/pageable setting).
  Cycle pciCopyCycles(uint64_t Bytes) const;

  /// Reads overrides from \p Config (missing keys keep defaults).
  static CommParams fromConfig(const ConfigStore &Config);

  /// Writes all parameters into \p Config.
  void toConfig(ConfigStore &Config) const;

private:
  template <size_t... I>
  bool agreesOn(const CommParams &Other, CommReadMask Mask,
                std::index_sequence<I...>) const {
    return ((!(Mask & bit(CommField(I))) ||
             std::get<I>(Values) == std::get<I>(Other.Values)) &&
            ...);
  }
  template <typename Fn, size_t... I>
  void visit(Fn &Visit, std::index_sequence<I...>) const {
    (Visit(Keys[I], get<CommField(I)>()), ...);
  }

  Tuple Values{33250, 16.0e9, 1000, 7000, 42000, 500, true, 0.55, 5000};
  mutable CommReadMask Reads = 0;
};

} // namespace hetsim

#endif // HETSIM_COMM_COMMPARAMS_H
