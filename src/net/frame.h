#ifndef CQ_NET_FRAME_H_
#define CQ_NET_FRAME_H_

/// \file frame.h
/// \brief Wire framing for the query-server protocol, decoupled from any
/// file descriptor.
///
/// The protocol is length-prefixed text: a uint32 big-endian frame length
/// followed by that many payload bytes. The blocking demo server could
/// afford `read(fd, exactly 4)`; an edge-triggered epoll loop cannot — a
/// readable socket may hold half a header, three frames and a fragment, or
/// nothing at all. FrameReader is the incremental half: feed it whatever
/// recv produced and pop complete frames as they materialise, with the
/// partial remainder buffered across readiness events. WriteBuffer is the
/// outbound half: frames queue as contiguous wire bytes and drain through
/// non-blocking writes that may stop anywhere, with the high-watermark
/// bookkeeping slow-consumer eviction is built on.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/status.h"

namespace cq::net {

/// Frames larger than this are a protocol violation (and, on the inbound
/// side, the usual signature of a non-protocol client such as an HTTP GET
/// landing on the wrong port).
constexpr uint32_t kMaxFrameBytes = 1u << 20;  // 1 MiB

/// \brief Renders `payload` as wire bytes: u32 big-endian length + payload.
std::string EncodeFrame(std::string_view payload);

/// \brief Appends to `out` the wire bytes of a frame whose payload is `head`
/// then `body` — EncodeFrame(head + body) without building the payload.
void AppendFrame(std::string* out, std::string_view head,
                 std::string_view body);

/// \brief Incremental decoder for length-prefixed frames.
///
/// Usage per readiness event: Append() every chunk recv returned, then loop
/// Next() until it returns false. Oversized or torn input surfaces as an
/// error from Next(), at which point the connection should be dropped — the
/// stream cannot re-synchronise.
class FrameReader {
 public:
  /// \brief Buffers `data` (any split: mid-header, mid-payload, many
  /// frames at once).
  void Append(std::string_view data) { buf_.append(data); }

  /// \brief Pops the next complete frame into `out`. Returns false when no
  /// complete frame is buffered yet; InvalidArgument when the announced
  /// length exceeds kMaxFrameBytes.
  Result<bool> Next(std::string* out);

  /// \brief Bytes buffered but not yet consumed as frames.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// \brief The raw unconsumed head of the buffer (protocol sniffing: an
  /// HTTP request line is not a frame header).
  std::string_view unconsumed() const {
    return std::string_view(buf_).substr(pos_);
  }

  /// \brief Drops all buffered bytes (connection teardown / rejected input).
  void Clear() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix; compacted once it outgrows the tail
};

/// \brief Outbound byte queue with partial-write resumption.
///
/// Append() enqueues wire bytes; FlushTo() writes as much as the socket
/// accepts and keeps the remainder. size() is the pending backlog — the
/// quantity the server's slow-consumer watermark watches.
class WriteBuffer {
 public:
  void Append(std::string_view wire);

  /// \brief Writes pending bytes to `fd` until drained or the socket stops
  /// accepting (EAGAIN). Returns IOError on a hard socket error (the
  /// connection is dead); ok otherwise. `*would_block` reports whether
  /// unsent bytes remain (caller arms EPOLLOUT).
  Status FlushTo(int fd, bool* would_block);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// \brief Drops all pending bytes (connection teardown).
  void Clear();

 private:
  std::deque<std::string> chunks_;
  size_t head_offset_ = 0;  // sent prefix of chunks_.front()
  size_t size_ = 0;
};

}  // namespace cq::net

#endif  // CQ_NET_FRAME_H_
