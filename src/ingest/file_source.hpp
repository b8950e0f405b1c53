// File replay source: streams packets out of a capture file without
// materialising the trace.  Two on-disk formats:
//   - FMTR    the repo's own fixed-record format — a lossless
//             round-trip of the full Packet struct;
//   - pcap    classic libpcap captures (magic 0xa1b2c3d4 usec or
//             0xa1b23c4d nsec, either endianness), linktype 1 (Ethernet,
//             VLAN-aware) or 101 (raw IPv4).  Non-IPv4 or truncated
//             records are skipped and counted, never fatal mid-stream.
// Format is sniffed from the magic by default.  Timestamp pacing is NOT
// done here — the source always produces as fast as the caller pulls; the
// ingest pump (pump.hpp) owns the real-time pacing policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "ingest/packet_source.hpp"

namespace flymon::ingest {

class FileReplaySource final : public PacketSource {
 public:
  enum class Format { kAuto, kFmtr, kPcap };

  /// Opens and sniffs the file; throws std::runtime_error on open
  /// failure, unknown magic, or a truncated header.
  explicit FileReplaySource(std::string path, Format format = Format::kAuto);
  ~FileReplaySource() override;

  const char* name() const noexcept override { return "file"; }
  std::size_t pull(std::span<Packet> out) override;
  bool done() const override { return done_; }
  std::uint64_t produced() const override { return produced_; }
  bool rewind() override;

  Format format() const noexcept { return format_; }
  /// Records skipped (non-IPv4 payload, truncated record).  Readable from
  /// another thread while a pump pulls.
  std::uint64_t skipped() const noexcept {
    return skipped_.load(std::memory_order_relaxed);
  }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };

  void open_and_sniff();
  bool next_fmtr(Packet& out);
  bool next_pcap(Packet& out);

  std::string path_;
  Format requested_;
  Format format_ = Format::kAuto;
  std::unique_ptr<std::FILE, FileCloser> f_;
  bool done_ = false;
  std::uint64_t produced_ = 0;
  std::atomic<std::uint64_t> skipped_{0};

  // FMTR state.
  std::uint64_t fmtr_remaining_ = 0;

  // pcap state.
  bool swap_ = false;          // file endianness != host
  bool nanos_ = false;         // subsecond field is ns (else us)
  std::uint32_t linktype_ = 1;
};

}  // namespace flymon::ingest
