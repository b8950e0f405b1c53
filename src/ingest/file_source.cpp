#include "ingest/file_source.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace flymon::ingest {
namespace {

// FMTR: 16-byte header (magic "FMTR", version, record count), then packed
// 33-byte records in little-endian field order (read by next_fmtr).
constexpr std::uint32_t kFmtrMagic = 0x464D'5452;  // "FMTR"
constexpr std::uint32_t kFmtrVersion = 1;
constexpr std::size_t kFmtrRecordBytes = 4 + 4 + 2 + 2 + 1 + 4 + 8 + 4 + 4;
constexpr std::size_t kFmtrHeaderBytes = 16;

// pcap magics, native byte order as read from the file.
constexpr std::uint32_t kPcapMagicUs = 0xA1B2'C3D4;
constexpr std::uint32_t kPcapMagicNs = 0xA1B2'3C4D;
constexpr std::uint32_t kPcapMagicUsSwapped = 0xD4C3'B2A1;
constexpr std::uint32_t kPcapMagicNsSwapped = 0x4D3C'B2A1;

constexpr std::uint32_t kLinktypeEthernet = 1;
constexpr std::uint32_t kLinktypeRawIp = 101;

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0x0000'00FFu) << 24) | ((v & 0x0000'FF00u) << 8) |
         ((v & 0x00FF'0000u) >> 8) | ((v & 0xFF00'0000u) >> 24);
}

std::uint32_t le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint64_t le64(const std::uint8_t* p) {
  return std::uint64_t{le32(p)} | (std::uint64_t{le32(p + 4)} << 32);
}

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

constexpr std::size_t kPcapFileHeaderBytes = 24;
constexpr std::size_t kPcapRecordHeaderBytes = 16;

/// Parse an IPv4 packet (starting at `ip`) into `out`.  Returns false on
/// anything that is not a plausible IPv4 header.
bool parse_ipv4(const std::uint8_t* ip, std::size_t len, Packet& out) {
  if (len < 20) return false;
  const unsigned version = ip[0] >> 4;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
  if (version != 4 || ihl < 20 || len < ihl) return false;
  out.ft.protocol = ip[9];
  out.ft.src_ip = be32(ip + 12);
  out.ft.dst_ip = be32(ip + 16);
  if ((out.ft.protocol == 6 || out.ft.protocol == 17) && len >= ihl + 4) {
    out.ft.src_port = be16(ip + ihl);
    out.ft.dst_port = be16(ip + ihl + 2);
  }
  return true;
}

}  // namespace

FileReplaySource::FileReplaySource(std::string path, Format format)
    : path_(std::move(path)), requested_(format) {
  open_and_sniff();
}

FileReplaySource::~FileReplaySource() = default;

void FileReplaySource::open_and_sniff() {
  f_.reset(std::fopen(path_.c_str(), "rb"));
  if (!f_) throw std::runtime_error("FileReplaySource: cannot open " + path_);
  done_ = false;
  produced_ = 0;
  skipped_ = 0;

  std::uint8_t magic_bytes[4];
  if (std::fread(magic_bytes, 1, sizeof magic_bytes, f_.get()) !=
      sizeof magic_bytes) {
    throw std::runtime_error("FileReplaySource: truncated header in " + path_);
  }
  const std::uint32_t magic_le = le32(magic_bytes);

  const bool looks_fmtr = magic_le == kFmtrMagic;
  const bool looks_pcap = magic_le == kPcapMagicUs || magic_le == kPcapMagicNs ||
                          magic_le == kPcapMagicUsSwapped ||
                          magic_le == kPcapMagicNsSwapped;
  if (requested_ == Format::kFmtr || (requested_ == Format::kAuto && looks_fmtr)) {
    if (!looks_fmtr) {
      throw std::runtime_error("FileReplaySource: not an FMTR file: " + path_);
    }
    format_ = Format::kFmtr;
    std::uint8_t rest[kFmtrHeaderBytes - 4];
    if (std::fread(rest, 1, sizeof rest, f_.get()) != sizeof rest) {
      throw std::runtime_error("FileReplaySource: truncated header in " + path_);
    }
    if (le32(rest) != kFmtrVersion) {
      throw std::runtime_error("FileReplaySource: unsupported FMTR version");
    }
    fmtr_remaining_ = le64(rest + 4);
    done_ = fmtr_remaining_ == 0;
    return;
  }
  if (requested_ == Format::kPcap || (requested_ == Format::kAuto && looks_pcap)) {
    if (!looks_pcap) {
      throw std::runtime_error("FileReplaySource: not a pcap file: " + path_);
    }
    format_ = Format::kPcap;
    swap_ = magic_le == kPcapMagicUsSwapped || magic_le == kPcapMagicNsSwapped;
    nanos_ = magic_le == kPcapMagicNs || magic_le == kPcapMagicNsSwapped;
    std::uint8_t rest[kPcapFileHeaderBytes - 4];
    if (std::fread(rest, 1, sizeof rest, f_.get()) != sizeof rest) {
      throw std::runtime_error("FileReplaySource: truncated pcap header in " +
                               path_);
    }
    linktype_ = le32(rest + 16);
    if (swap_) linktype_ = bswap32(linktype_);
    if (linktype_ != kLinktypeEthernet && linktype_ != kLinktypeRawIp) {
      throw std::runtime_error("FileReplaySource: unsupported pcap linktype " +
                               std::to_string(linktype_));
    }
    return;
  }
  throw std::runtime_error("FileReplaySource: unrecognised capture format in " +
                           path_);
}

bool FileReplaySource::next_fmtr(Packet& out) {
  if (fmtr_remaining_ == 0) return false;
  std::uint8_t r[kFmtrRecordBytes];
  if (std::fread(r, 1, sizeof r, f_.get()) != sizeof r) {
    done_ = true;  // truncated tail: stop cleanly, surface via skipped_
    ++skipped_;
    fmtr_remaining_ = 0;
    return false;
  }
  out.ft.src_ip = le32(r);
  out.ft.dst_ip = le32(r + 4);
  out.ft.src_port = static_cast<std::uint16_t>(r[8] | (r[9] << 8));
  out.ft.dst_port = static_cast<std::uint16_t>(r[10] | (r[11] << 8));
  out.ft.protocol = r[12];
  out.wire_bytes = le32(r + 13);
  out.ts_ns = le64(r + 17);
  out.queue_len = le32(r + 25);
  out.queue_delay_ns = le32(r + 29);
  if (--fmtr_remaining_ == 0) done_ = true;
  return true;
}

bool FileReplaySource::next_pcap(Packet& out) {
  std::uint8_t hdr[kPcapRecordHeaderBytes];
  std::vector<std::uint8_t> payload;
  for (;;) {
    const std::size_t got = std::fread(hdr, 1, sizeof hdr, f_.get());
    if (got == 0) {
      done_ = true;
      return false;
    }
    if (got != sizeof hdr) {
      ++skipped_;
      done_ = true;
      return false;
    }
    std::uint32_t ts_sec = le32(hdr);
    std::uint32_t ts_sub = le32(hdr + 4);
    std::uint32_t incl_len = le32(hdr + 8);
    std::uint32_t orig_len = le32(hdr + 12);
    if (swap_) {
      ts_sec = bswap32(ts_sec);
      ts_sub = bswap32(ts_sub);
      incl_len = bswap32(incl_len);
      orig_len = bswap32(orig_len);
    }
    if (incl_len > (1u << 26)) {  // implausible record: bail out
      ++skipped_;
      done_ = true;
      return false;
    }
    payload.resize(incl_len);
    if (std::fread(payload.data(), 1, incl_len, f_.get()) != incl_len) {
      ++skipped_;
      done_ = true;
      return false;
    }

    const std::uint8_t* ip = payload.data();
    std::size_t len = payload.size();
    if (linktype_ == kLinktypeEthernet) {
      if (len < 14) {
        ++skipped_;
        continue;
      }
      std::uint16_t ethertype = be16(ip + 12);
      std::size_t off = 14;
      while (ethertype == 0x8100 && len >= off + 4) {  // 802.1Q VLAN tag(s)
        ethertype = be16(ip + off + 2);
        off += 4;
      }
      if (ethertype != 0x0800) {
        ++skipped_;
        continue;
      }
      ip += off;
      len -= off;
    }
    Packet p;
    if (!parse_ipv4(ip, len, p)) {
      ++skipped_;
      continue;
    }
    p.wire_bytes = orig_len;
    p.ts_ns = std::uint64_t{ts_sec} * 1'000'000'000ull +
              (nanos_ ? std::uint64_t{ts_sub} : std::uint64_t{ts_sub} * 1000ull);
    out = p;
    return true;
  }
}

std::size_t FileReplaySource::pull(std::span<Packet> out) {
  std::size_t n = 0;
  while (n < out.size() && !done_) {
    const bool ok =
        format_ == Format::kFmtr ? next_fmtr(out[n]) : next_pcap(out[n]);
    if (!ok) break;
    ++n;
  }
  produced_ += n;
  return n;
}

bool FileReplaySource::rewind() {
  open_and_sniff();
  return true;
}

}  // namespace flymon::ingest
