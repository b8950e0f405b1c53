// Capture writers for the replay tests: FMTR (the repo's fixed-record
// format: 16-byte header, then packed 33-byte little-endian records) and
// classic pcap with synthesised Ethernet+IPv4+TCP/UDP frames.  They write
// the formats ingest::FileReplaySource reads, from the format definitions
// rather than from the reader's code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "packet/packet.hpp"

namespace flymon {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Write `trace` as an FMTR file; throws std::runtime_error on I/O failure.
inline void write_fmtr(const std::string& path, const std::vector<Packet>& trace) {
  const FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("write_fmtr: cannot open " + path);
  std::vector<std::uint8_t> buf;
  buf.reserve(16 + trace.size() * 33);
  auto put_le = [&buf](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_le(0x464D'5452, 4);  // "FMTR"
  put_le(1, 4);            // version
  put_le(trace.size(), 8);
  for (const Packet& p : trace) {
    put_le(p.ft.src_ip, 4);
    put_le(p.ft.dst_ip, 4);
    put_le(p.ft.src_port, 2);
    put_le(p.ft.dst_port, 2);
    put_le(p.ft.protocol, 1);
    put_le(p.wire_bytes, 4);
    put_le(p.ts_ns, 8);
    put_le(p.queue_len, 4);
    put_le(p.queue_delay_ns, 4);
  }
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    throw std::runtime_error("write_fmtr: short write to " + path);
  }
}

/// Write `trace` as a pcap file (nanosecond or microsecond timestamps).
inline void write_pcap(const std::string& path, const std::vector<Packet>& trace,
                       bool nanosecond = true) {
  const FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("write_pcap: cannot open " + path);
  std::vector<std::uint8_t> buf;
  auto put16le = [&buf](std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  auto put32le = [&buf](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto put16be = [&buf](std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
    buf.push_back(static_cast<std::uint8_t>(v));
  };
  auto put32be = [&buf](std::uint32_t v) {
    for (int i = 3; i >= 0; --i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };

  put32le(nanosecond ? 0xA1B2'3C4Du : 0xA1B2'C3D4u);
  put16le(2);  // version 2.4
  put16le(4);
  put32le(0);  // thiszone
  put32le(0);  // sigfigs
  put32le(65535);  // snaplen
  put32le(1);  // linktype: Ethernet

  for (const Packet& p : trace) {
    const bool l4 = p.ft.protocol == 6 || p.ft.protocol == 17;
    const std::size_t l4_bytes = p.ft.protocol == 6 ? 20 : (l4 ? 8 : 0);
    const std::uint32_t incl =
        static_cast<std::uint32_t>(14 + 20 + l4_bytes);
    put32le(static_cast<std::uint32_t>(p.ts_ns / 1'000'000'000ull));
    const std::uint64_t sub = p.ts_ns % 1'000'000'000ull;
    put32le(static_cast<std::uint32_t>(nanosecond ? sub : sub / 1000));
    put32le(incl);
    put32le(p.wire_bytes > incl ? p.wire_bytes : incl);  // orig_len
    // Ethernet: zero MACs, IPv4 ethertype.
    for (int i = 0; i < 12; ++i) buf.push_back(0);
    put16be(0x0800);
    // IPv4 header (no options, zero checksum — replay never verifies).
    buf.push_back(0x45);
    buf.push_back(0);
    put16be(static_cast<std::uint16_t>(20 + l4_bytes));
    put16be(0);      // id
    put16be(0x4000); // don't-fragment
    buf.push_back(64);  // ttl
    buf.push_back(p.ft.protocol);
    put16be(0);  // checksum
    put32be(p.ft.src_ip);
    put32be(p.ft.dst_ip);
    if (l4) {
      put16be(p.ft.src_port);
      put16be(p.ft.dst_port);
      if (p.ft.protocol == 6) {
        put32be(0);  // seq
        put32be(0);  // ack
        buf.push_back(0x50);  // data offset
        buf.push_back(0x10);  // ACK
        put16be(0);  // window
        put16be(0);  // checksum
        put16be(0);  // urgent
      } else {
        put16be(static_cast<std::uint16_t>(8));  // udp length
        put16be(0);                              // checksum
      }
    }
  }
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    throw std::runtime_error("write_pcap: short write to " + path);
  }
}

}  // namespace flymon
