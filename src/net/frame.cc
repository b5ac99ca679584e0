#include "net/frame.h"

#include <arpa/inet.h>
#include <errno.h>
#include <unistd.h>

#include <cstring>

namespace cq::net {

std::string EncodeFrame(std::string_view payload) {
  std::string wire;
  AppendFrame(&wire, payload, /*body=*/{});
  return wire;
}

void AppendFrame(std::string* out, std::string_view head,
                 std::string_view body) {
  const uint32_t be = htonl(static_cast<uint32_t>(head.size() + body.size()));
  out->append(reinterpret_cast<const char*>(&be), sizeof(be));
  out->append(head);
  out->append(body);
}

Result<bool> FrameReader::Next(std::string* out) {
  const size_t avail = buf_.size() - pos_;
  if (avail < sizeof(uint32_t)) return false;
  uint32_t be = 0;
  std::memcpy(&be, buf_.data() + pos_, sizeof(be));
  const uint32_t len = ntohl(be);
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxFrameBytes) + " cap");
  }
  if (avail < sizeof(uint32_t) + len) return false;
  out->assign(buf_, pos_ + sizeof(uint32_t), len);
  pos_ += sizeof(uint32_t) + len;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

void WriteBuffer::Append(std::string_view wire) {
  if (wire.empty()) return;
  size_ += wire.size();
  // Coalesce small frames into the tail chunk so FlushTo issues fewer
  // writes; big payloads get their own chunk to avoid re-copying.
  if (!chunks_.empty() && chunks_.back().size() + wire.size() <= 16384 &&
      (chunks_.size() > 1 || head_offset_ == 0)) {
    chunks_.back().append(wire);
  } else {
    chunks_.emplace_back(wire);
  }
}

Status WriteBuffer::FlushTo(int fd, bool* would_block) {
  *would_block = false;
  while (!chunks_.empty()) {
    const std::string& head = chunks_.front();
    const char* p = head.data() + head_offset_;
    size_t len = head.size() - head_offset_;
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        *would_block = true;
        return Status::OK();
      }
      return Status::IOError("write: " + std::string(strerror(errno)));
    }
    size_ -= static_cast<size_t>(n);
    head_offset_ += static_cast<size_t>(n);
    if (head_offset_ == head.size()) {
      chunks_.pop_front();
      head_offset_ = 0;
    } else {
      // Short write: the socket buffer is full even though write didn't
      // say EAGAIN outright; treat it the same way.
      *would_block = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

void WriteBuffer::Clear() {
  chunks_.clear();
  head_offset_ = 0;
  size_ = 0;
}

}  // namespace cq::net
