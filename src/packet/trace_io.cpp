#include "packet/trace_io.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace flymon {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

constexpr std::size_t kRecordBytes = 4 + 4 + 2 + 2 + 1 + 4 + 8 + 4 + 4;  // 33

}  // namespace

void TraceIo::save(const std::string& path, const std::vector<Packet>& trace) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("TraceIo::save: cannot open " + path);

  std::vector<std::uint8_t> buf;
  buf.reserve(16 + trace.size() * kRecordBytes);
  put_u32(buf, kMagic);
  put_u32(buf, kVersion);
  put_u64(buf, trace.size());
  for (const Packet& p : trace) {
    put_u32(buf, p.ft.src_ip);
    put_u32(buf, p.ft.dst_ip);
    buf.push_back(static_cast<std::uint8_t>(p.ft.src_port));
    buf.push_back(static_cast<std::uint8_t>(p.ft.src_port >> 8));
    buf.push_back(static_cast<std::uint8_t>(p.ft.dst_port));
    buf.push_back(static_cast<std::uint8_t>(p.ft.dst_port >> 8));
    buf.push_back(p.ft.protocol);
    put_u32(buf, p.wire_bytes);
    put_u64(buf, p.ts_ns);
    put_u32(buf, p.queue_len);
    put_u32(buf, p.queue_delay_ns);
  }
  if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    throw std::runtime_error("TraceIo::save: short write to " + path);
  }
}

}  // namespace flymon
