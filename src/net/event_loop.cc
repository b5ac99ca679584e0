#include "net/event_loop.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>

namespace cq::net {

namespace {
int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  if (epoll_fd_ >= 0) return Status::Internal("event loop already initialised");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError("epoll_create1: " + std::string(strerror(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status st =
        Status::IOError("eventfd: " + std::string(strerror(errno)));
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IOError("epoll_ctl(wake): " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::IOError("epoll_ctl(add): " + std::string(strerror(errno)));
  }
  callbacks_[fd] = std::move(cb);
  // A registration made while dispatching can only mean the kernel recycled
  // a number closed earlier in the same round; any event still queued for
  // that number belongs to the old fd and must not reach the new callback
  // (an old EPOLLHUP would close a freshly accepted connection).
  if (in_dispatch_) added_this_round_.insert(fd);
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Status::IOError("epoll_ctl(mod): " + std::string(strerror(errno)));
  }
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // A still-queued event for this fd in the current dispatch round finds no
  // callback and is dropped. If the kernel reuses the number for a
  // connection accepted in the same round, Add marks it and the dispatch
  // loop suppresses the stale event (handlers are not readiness-safe
  // against foreign events: EPOLLHUP closes unconditionally).
  callbacks_.erase(fd);
}

void EventLoop::Wake(uint64_t token) {
  // One write(2): async-signal-safe by POSIX, which is the whole point —
  // the SIGTERM handler calls this.
  uint64_t v = token;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &v, sizeof(v));
}

void EventLoop::Run(int tick_ms, const std::function<void()>& tick) {
  running_ = true;
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  const int64_t interval_ns = static_cast<int64_t>(tick_ms) * 1'000'000;
  int64_t next_tick_ns = NowNanos() + interval_ns;
  while (running_) {
    // Wait only for what is left of the tick interval, so a stream of
    // events neither starves the tick nor runs it once per event.
    const int64_t left_ns = next_tick_ns - NowNanos();
    const int timeout_ms =
        left_ns <= 0 ? 0 : static_cast<int>((left_ns + 999'999) / 1'000'000);
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // fatal epoll failure: leave Run rather than spin
    }
    in_dispatch_ = true;
    added_this_round_.clear();
    for (int i = 0; i < n && running_; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t tokens = 0;
        if (::read(wake_fd_, &tokens, sizeof(tokens)) == sizeof(tokens) &&
            wake_handler_) {
          wake_handler_(tokens);
        }
        continue;
      }
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;  // removed earlier this round
      if (added_this_round_.count(fd) != 0) {
        continue;  // stale event for a number recycled mid-round
      }
      // Copy: the callback may Remove(fd) (connection teardown) and
      // invalidate the map entry under itself.
      FdCallback cb = it->second;
      cb(events[i].events);
    }
    in_dispatch_ = false;
    const int64_t now_ns = NowNanos();
    if (now_ns < next_tick_ns) continue;
    next_tick_ns = now_ns + interval_ns;
    if (running_ && tick) tick();
  }
}

}  // namespace cq::net
