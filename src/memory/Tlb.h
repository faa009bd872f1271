//===- memory/Tlb.h - Translation lookaside buffer --------------*- C++ -*-===//
///
/// \file
/// A set-associative TLB. Section II-A1 notes that different page-table
/// formats per PU complicate TLB and MMU design; here each PU's TLB uses
/// its own page size, and larger GPU pages directly reduce GPU TLB misses.
///
//===----------------------------------------------------------------------===//

#ifndef HETSIM_MEMORY_TLB_H
#define HETSIM_MEMORY_TLB_H

#include "common/Types.h"

#include <vector>

namespace hetsim {

/// TLB statistics.
struct TlbStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  double hitRate() const {
    return Lookups == 0 ? 0.0 : double(Hits) / double(Lookups);
  }
};

/// A set-associative LRU TLB over virtual page numbers.
class Tlb {
public:
  Tlb(unsigned Entries, unsigned Ways, uint64_t PageBytes);

  /// Looks \p VAddr up, filling on a miss; returns true on a hit.
  bool lookup(Addr VAddr);

  /// Invalidates all entries (e.g. after remapping).
  void flush();

  const TlbStats &stats() const { return Stats; }
  uint64_t pageBytes() const { return PageBytes; }

private:
  struct Entry {
    uint64_t Vpn = 0;
    uint64_t Stamp = 0;
    bool Valid = false;
  };

  unsigned NumSets;
  unsigned Ways;
  uint64_t PageBytes;
  std::vector<Entry> Entries;
  TlbStats Stats;
  uint64_t NextStamp = 1;
};

} // namespace hetsim

#endif // HETSIM_MEMORY_TLB_H
