//===- comm/CommParams.cpp ------------------------------------------------===//

#include "comm/CommParams.h"

#include "common/Units.h"

using namespace hetsim;

namespace {

Cycle readValue(const ConfigStore &Config, const char *Key, Cycle Default) {
  return Config.getUInt(Key, Default);
}
double readValue(const ConfigStore &Config, const char *Key, double Default) {
  return Config.getDouble(Key, Default);
}
bool readValue(const ConfigStore &Config, const char *Key, bool Default) {
  return Config.getBool(Key, Default);
}

void writeValue(ConfigStore &Config, const char *Key, Cycle Value) {
  Config.setInt(Key, int64_t(Value));
}
void writeValue(ConfigStore &Config, const char *Key, double Value) {
  Config.setDouble(Key, Value);
}
void writeValue(ConfigStore &Config, const char *Key, bool Value) {
  Config.setBool(Key, Value);
}

template <size_t... I>
void readAll(CommParams &P, const ConfigStore &Config,
             std::index_sequence<I...>) {
  (P.set<CommField(I)>(readValue(Config, CommParams::Keys[I],
                                         P.get<CommField(I)>())),
   ...);
}

} // namespace

Cycle CommParams::pciCopyCycles(uint64_t Bytes) const {
  Cycle Base = get<CommField::ApiPciBase>();
  double Rate = get<CommField::PciBytesPerSec>();
  if (get<CommField::PinnedHostMemory>())
    return Base + transferCycles(PuKind::Cpu, Bytes, Rate);
  return Base + get<CommField::PageableStagingOverhead>() +
         transferCycles(PuKind::Cpu, Bytes, Rate * get<CommField::PageableRateFactor>());
}

CommParams CommParams::fromConfig(const ConfigStore &Config) {
  CommParams P;
  readAll(P, Config, std::make_index_sequence<NumCommFields>());
  P.clearReads();
  return P;
}

void CommParams::toConfig(ConfigStore &Config) const {
  visit([&](const char *Key, auto Value) { writeValue(Config, Key, Value); });
}
