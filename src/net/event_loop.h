#ifndef CQ_NET_EVENT_LOOP_H_
#define CQ_NET_EVENT_LOOP_H_

/// \file event_loop.h
/// \brief EventLoop: a single-threaded epoll readiness loop.
///
/// The front door's reactor. One thread owns the epoll instance and every
/// registered fd; callbacks run on that thread, so connection state needs no
/// locking. Registration style follows the kernel's:
///
///  - the listener registers level-triggered (EPOLLIN): accept one burst per
///    wakeup and let the kernel re-report the backlog;
///  - connections register edge-triggered (EPOLLIN | EPOLLET, EPOLLOUT
///    armed on demand): each event means "drain until EAGAIN", which is what
///    FrameReader/WriteBuffer are built for.
///
/// Cross-thread (and async-signal-safe) interaction goes through one
/// eventfd: Wake(token) is a single write(2) — legal from a signal handler —
/// and the loop hands the token to the wake handler on its own thread. The
/// loop also ticks: epoll_wait waits at most until the next tick is due,
/// and the tick handler runs once per interval, not after every burst. The
/// tick is where token buckets refill and slow-consumer grace periods
/// expire.

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "common/status.h"

namespace cq::net {

class EventLoop {
 public:
  /// Receives the ready event mask (EPOLLIN / EPOLLOUT / EPOLLHUP / ...).
  using FdCallback = std::function<void(uint32_t events)>;

  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Creates the epoll instance and the wake eventfd.
  Status Init();

  /// \brief Registers `fd` for `events` (EPOLL* mask). The callback stays
  /// until Remove.
  Status Add(int fd, uint32_t events, FdCallback cb);

  /// \brief Changes the armed event mask for a registered fd.
  Status Modify(int fd, uint32_t events);

  /// \brief Unregisters `fd` (does not close it). Safe mid-dispatch: a
  /// removed fd's still-queued events are dropped.
  void Remove(int fd);

  /// \brief Runs until Stop(): dispatch ready fds, and call `tick` (if
  /// set) each time `tick_ms` has passed since the previous call.
  void Run(int tick_ms, const std::function<void()>& tick);

  /// \brief Ends Run() after the current dispatch round (loop thread only;
  /// other threads use Wake and stop from the wake handler).
  void Stop() { running_ = false; }

  /// \brief Async-signal-safe nudge: adds `token` to the wake counter and
  /// makes the loop call the wake handler. Callable from any thread or from
  /// a signal handler.
  void Wake(uint64_t token = 1);

  /// \brief Handler for Wake tokens; receives the sum of tokens since the
  /// last delivery. Set before Run.
  void SetWakeHandler(std::function<void(uint64_t)> handler) {
    wake_handler_ = std::move(handler);
  }

  int epoll_fd() const { return epoll_fd_; }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool running_ = false;
  bool in_dispatch_ = false;
  /// Fds registered while dispatching the current epoll_wait batch: the
  /// kernel recycled a number closed earlier in the round, so any event
  /// still queued under it is for the *old* fd and is suppressed.
  std::set<int> added_this_round_;
  std::map<int, FdCallback> callbacks_;
  std::function<void(uint64_t)> wake_handler_;
};

}  // namespace cq::net

#endif  // CQ_NET_EVENT_LOOP_H_
