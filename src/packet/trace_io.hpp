// Binary trace persistence: a compact fixed-record format so generated
// workloads (or converted real captures) can be saved once and replayed
// across benchmark runs.
#pragma once

#include <string>
#include <vector>

#include "packet/packet.hpp"

namespace flymon {

/// File layout: 16-byte header (magic "FMTR", version, record count) then
/// packed 33-byte records in little-endian field order.  Read it back with
/// ingest::FileReplaySource.
class TraceIo {
 public:
  static constexpr std::uint32_t kMagic = 0x464D'5452;  // "FMTR"
  static constexpr std::uint32_t kVersion = 1;

  /// Write the trace; throws std::runtime_error on I/O failure.
  static void save(const std::string& path, const std::vector<Packet>& trace);
};

}  // namespace flymon
