/// \file e2e_bench.cc
/// \brief Socket-to-socket benchmark: one run of one workload against a
/// real net::Server in a child process.
///
///   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
///
/// One generator thread drives a producer/control connection and up to
/// three subscriber connections carrying LISTEN feeds. A run is: set-up
/// (repeated, median reported), a discarded warm-up, an open-loop phase at
/// the workload's fixed rate (latency and CPU per record), a closed-loop
/// phase with a fixed outstanding-frame window (throughput), then a drain
/// and the correctness oracle. With --trace 1 the run instead serves a
/// traced, decorated server and reports the per-layer breakdown.
///
/// The last stdout line is one JSON object with the raw results; the
/// wrapper script turns it into the benchmark's result line.

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "log_histogram.h"
#include "net/frame.h"
#include "obs/trace.h"
#include "oracle.h"
#include "server_child.h"
#include "workload.h"

namespace cq::perfbench {

namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;
/// Measured phases are also cut into windows this long. A host stall of a
/// few tens of milliseconds inflates the tail of the window it falls in;
/// latency_p90_us is the median over windows so one stall cannot move it.
/// The per-window figures go to the run record.
constexpr int64_t kSlice = kSec / 2;

int64_t Now() { return MonotonicNanos(); }

// --- Probes into the server process -----------------------------------------

/// CPU time of every thread of `pid`, in nanoseconds, from schedstat,
/// which is exact, unlike tick-sampled utime/stime.
int64_t ChildCpuNs(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  int64_t total = 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    long long run = 0;
    if (in >> run) total += run;
  }
  ::closedir(d);
  return total;
}


/// Time the host has stolen from this VM's CPUs so far, in USER_HZ ticks
/// (the eighth field of /proc/stat's "cpu" line).
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long fields[8] = {};
  in >> label;
  for (long long& f : fields) in >> f;
  return fields[7];
}

/// VmHWM of `pid` in MB.
double ChildPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- Sockets ----------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking HTTP/1.0 GET on the server's port; the body, or "" on error.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::string resp;
  if (::write(fd, req.data(), req.size()) ==
      static_cast<ssize_t>(req.size())) {
    char buf[65536];
    while (true) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) break;
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      resp.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  const size_t body = resp.find("\r\n\r\n");
  return body == std::string::npos ? "" : resp.substr(body + 4);
}

// --- Prometheus text -------------------------------------------------------

using Scrape = std::map<std::string, double>;  // "family{labels}" -> value

Scrape ParseScrape(const std::string& text) {
  Scrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Sum of `family` series whose node label starts with `node_prefix`
/// (every series when the prefix is empty).
double SumSeries(const Scrape& s, const std::string& family,
                 const std::string& node_prefix = "") {
  double total = 0;
  const std::string node_label = "node=\"" + node_prefix;
  for (auto it = s.lower_bound(family); it != s.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    if (key.size() > family.size() && key[family.size()] != '{') continue;
    if (!node_prefix.empty() && key.find(node_label) == std::string::npos) {
      continue;
    }
    total += it->second;
  }
  return total;
}

double DeltaSeries(const Scrape& before, const Scrape& after,
                   const std::string& family,
                   const std::string& node_prefix = "") {
  return SumSeries(after, family, node_prefix) -
         SumSeries(before, family, node_prefix);
}

/// Reads a number field from the flat JSON the /bench route serves.
double ReadJsonNumber(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  auto mid = v.begin() + static_cast<long>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// --- The generator ----------------------------------------------------------

struct Conn {
  int fd = -1;
  std::string in;
  size_t in_pos = 0;
  std::string out;
  size_t out_pos = 0;
  bool eof = false;
  /// Subscriber connections: sid -> feed index (-1 = not ours).
  std::vector<int> sid_feed;
  /// Replies captured during set-up and control commands.
  std::vector<std::string> replies;
};

struct Feed {
  size_t query = 0;
  PeriodDigests digests;
};

/// One server, its connections and everything the generator observed.
class Session {
 public:
  Session(const Workload& w, const Traffic& traffic, ServerHandle server)
      : w_(w), traffic_(traffic), server_(server) {
    wm_sched_.reserve(1u << 20);
  }
  ~Session() { Close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Connects, registers the stream, every query and every feed. Returns
  /// the set-up time: server Init until the last acknowledgement. Commands
  /// are pipelined (the server answers in order), so the figure is the
  /// server's set-up work rather than a round trip per command.
  Result<double> Setup() {
    subs_.resize(w_.subscriber_conns);
    for (Conn* c : AllConns()) {
      c->fd = ConnectLoopback(server_.port);
      if (c->fd < 0 || !SetNonBlocking(c->fd)) {
        return Status::IOError("connect failed");
      }
    }
    capture_ = true;
    const std::string key = w_.shards > 1 ? " key=sym" : "";
    std::vector<std::string> commands = {
        "STREAM trades sym:string,price:int64,qty:int64" + key};
    for (const std::string& sql : w_.queries) {
      commands.push_back("REGISTER " + sql);
    }
    CQ_ASSIGN_OR_RETURN(std::vector<std::string> replies,
                        Commands(&producer_, commands));
    if (replies[0] != "OK") return Status::Internal("STREAM: " + replies[0]);
    std::vector<std::string> qids;
    for (size_t q = 1; q < replies.size(); ++q) {
      if (replies[q].rfind("OK id=", 0) != 0) {
        return Status::Internal("REGISTER: " + replies[q]);
      }
      qids.push_back(replies[q].substr(6));
    }
    // Feed i listens to query i % queries on connection i % connections.
    // Every connection's LISTENs go out at once.
    const size_t num_feeds = w_.feeds_per_query * qids.size();
    std::vector<Conn*> conns;
    std::vector<std::vector<std::string>> listens(subs_.size());
    for (size_t c = 0; c < subs_.size(); ++c) {
      conns.push_back(&subs_[c]);
      for (size_t i = c; i < num_feeds; i += subs_.size()) {
        listens[c].push_back("LISTEN " + qids[i % qids.size()]);
      }
    }
    CQ_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> sub_replies,
                        CommandsOnEach(conns, listens));
    for (size_t c = 0; c < subs_.size(); ++c) {
      size_t i = c;
      for (const std::string& reply : sub_replies[c]) {
        if (reply.rfind("OK sub=", 0) != 0) {
          return Status::Internal("LISTEN: " + reply);
        }
        const size_t sid = std::strtoul(reply.c_str() + 7, nullptr, 10);
        if (sid > 4096) return Status::Internal("LISTEN: sid out of range");
        std::vector<int>& sid_feed = subs_[c].sid_feed;
        if (sid_feed.size() <= sid) sid_feed.resize(sid + 1, -1);
        sid_feed[sid] = static_cast<int>(feeds_.size());
        feeds_.push_back(Feed{i % qids.size(), {}});
        i += subs_.size();
      }
    }
    capture_ = false;
    return static_cast<double>(Now() - server_.init_ns) / 1e9;
  }

  /// A control command on the producer connection while no traffic is in
  /// flight (after Quiesce).
  Result<std::string> Control(const std::string& payload) {
    capture_ = true;
    auto replies = Commands(&producer_, {payload});
    capture_ = false;
    CQ_RETURN_NOT_OK(replies.status());
    return std::move((*replies)[0]);
  }

  /// Open loop at the workload's rate: record k of the phase is due at
  /// start + k / rate whatever the server does. With `measure`, each
  /// record's lateness and each released frame's latency are recorded.
  /// Ends on a watermark boundary once `seconds` have passed.
  void OpenLoop(double seconds, bool measure) {
    const double period_ns = 1e9 / w_.rate;
    const int64_t t0 = Now();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    uint64_t k = 0;
    int64_t due = t0;
    bool done = false;
    rusage ru0{};
    ::getrusage(RUSAGE_THREAD, &ru0);
    int64_t slice_start = t0;
    uint64_t slice_records = open_records_;
    int64_t slice_cpu = measure ? ChildCpuNs(server_.pid) : 0;
    int64_t slice_steal = StealTicks();
    slice_latency_ = LogHistogram{};
    while (!done && !Failed()) {
      const int64_t now = Now();
      if (measure && now - slice_start >= kSlice) {
        const int64_t cpu = ChildCpuNs(server_.pid);
        open_slices_.cpu_us_per_record.push_back(
            Ratio(static_cast<double>(cpu - slice_cpu) / 1e3,
                  static_cast<double>(open_records_ - slice_records)));
        open_slices_.latency_p90_us.push_back(slice_latency_.Quantile(0.9) /
                                              1e3);
        const int64_t steal = StealTicks();
        open_slices_.steal_ticks.push_back(static_cast<double>(steal -
                                                               slice_steal));
        slice_steal = steal;
        slice_latency_ = LogHistogram{};
        slice_start = now;
        slice_records = open_records_;
        slice_cpu = cpu;
      }
      while (due <= now) {
        AppendFrame(traffic_, next_frame_++, &producer_.out);
        if (measure) {
          lag_.Record(now - due);
          ++open_records_;
        }
        if (IsWatermarkFrame(next_frame_)) {
          AppendFrame(traffic_, next_frame_++, &producer_.out);
          wm_sched_.push_back(measure ? due : -1);
          if (due >= end) {
            done = true;
            break;
          }
        }
        ++k;
        due = t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      }
      Flush(&producer_);
      if (done) break;
      // Spins when the next record is close: a timed sleep can wake up
      // milliseconds late on a VM whose idle vCPU the host has descheduled.
      const int64_t wait = due - Now();
      Poll(wait > 200'000 ? wait - 100'000 : 0);
    }
    rusage ru1{};
    ::getrusage(RUSAGE_THREAD, &ru1);
    if (measure) nivcsw_ += ru1.ru_nivcsw - ru0.ru_nivcsw;
  }

  /// Closed loop: keeps up to `window` frames unacknowledged, sent in
  /// batches of half the window, each in one write. With `measure`, counts
  /// acknowledged records and delivered frames over the phase.
  ///
  /// The server drains its socket on every wakeup and acknowledges only
  /// after processing all of it. A batch goes out as soon as the one before
  /// the batch in progress is acknowledged, so the next batch is always
  /// queued when the server finishes one: it never idles for a round trip,
  /// and each wakeup finds exactly one batch. Sending frames whenever window
  /// room appears would let a wakeup find anything from one frame to the
  /// whole window, and the cost per record, hence throughput, would vary
  /// with that mix from run to run. Batches are whole watermark periods,
  /// formatted ahead, so the phase starts and ends on a period boundary.
  void ClosedLoop(double seconds, bool measure) {
    const uint64_t batch = w_.window / 2;
    const int64_t t0 = Now();
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    const int64_t cpu0 = measure ? ChildCpuNs(server_.pid) : 0;
    closed_measuring_ = measure;
    int64_t slice_start = t0;
    uint64_t slice_acks = closed_push_acks_;
    uint64_t slice_frames = closed_frames_;
    Stage(batch);
    while (!Failed()) {
      const int64_t now = Now();
      if (closed_measuring_ && now - slice_start >= kSlice) {
        const double secs = static_cast<double>(now - slice_start) / 1e9;
        closed_slices_.rps.push_back(
            static_cast<double>(closed_push_acks_ - slice_acks) / secs);
        closed_slices_.fps.push_back(
            static_cast<double>(closed_frames_ - slice_frames) / secs);
        slice_start = now;
        slice_acks = closed_push_acks_;
        slice_frames = closed_frames_;
      }
      if (now >= end) {
        if (closed_measuring_) {
          closed_ns_ = now - t0;
          closed_cpu_ns_ = ChildCpuNs(server_.pid) - cpu0;
        }
        break;
      }
      if (next_frame_ - acked_ + batch <= w_.window) {
        SendStaged(batch);
        Flush(&producer_);
        Stage(batch);
      }
      Poll(kMs);
    }
    closed_measuring_ = false;
    staged_.clear();
    staged_len_.clear();
    staged_head_ = 0;
    staged_pos_ = 0;
  }

  /// Waits for every frame's acknowledgement, then for the feeds to stay
  /// silent for 200 ms.
  Status Quiesce() {
    const int64_t deadline = Now() + 30 * kSec;
    while (acked_ < next_frame_ && !Failed()) {
      if (Now() > deadline) return Status::Internal("acks never arrived");
      Flush(&producer_);
      Poll(kMs);
    }
    if (producer_.eof) return Status::IOError("server closed the producer");
    const int64_t waiting_since = Now();
    while (Now() - std::max(last_data_ns_, waiting_since) < 200 * kMs) {
      if (Now() > deadline) return Status::Internal("feeds never went idle");
      Poll(10 * kMs);
    }
    return Status::OK();
  }

  void Close() {
    for (Conn* c : AllConns()) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
    }
  }

  bool Failed() const { return producer_.eof; }

  const ServerHandle& server() const { return server_; }
  uint64_t frames_sent() const { return next_frame_; }
  uint64_t records_sent() const {
    return next_frame_ - next_frame_ / kFramesPerPeriod;
  }
  const std::vector<Feed>& feeds() const { return feeds_; }

  // Observations.
  LogHistogram latency_;
  LogHistogram lag_;
  uint64_t open_records_ = 0;
  /// Per-kSlice figures of the measured phases.
  struct ClosedSlices {
    std::vector<double> rps;
    std::vector<double> fps;
  } closed_slices_;
  struct OpenSlices {
    std::vector<double> cpu_us_per_record;
    std::vector<double> latency_p90_us;
    std::vector<double> steal_ticks;
  } open_slices_;
  LogHistogram slice_latency_;
  int64_t nivcsw_ = 0;
  uint64_t closed_push_acks_ = 0;
  uint64_t closed_frames_ = 0;
  uint64_t closed_bytes_ = 0;
  int64_t closed_ns_ = 0;
  int64_t closed_cpu_ns_ = 0;
  uint64_t err_replies_ = 0;
  uint64_t lost_feeds_ = 0;
  uint64_t stray_frames_ = 0;
  std::vector<std::string> causes_;

 private:
  std::vector<Conn*> AllConns() {
    std::vector<Conn*> out{&producer_};
    for (Conn& c : subs_) out.push_back(&c);
    return out;
  }

  static bool SetNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
  }

  void Cause(const std::string& what) {
    if (causes_.size() < 8) causes_.push_back(what);
  }

  /// Formats frames ahead of next_frame_ until `n` are staged.
  void Stage(uint64_t n) {
    while (staged_len_.size() - staged_head_ < n) {
      const size_t before = staged_.size();
      AppendFrame(traffic_, next_frame_ + (staged_len_.size() - staged_head_),
                  &staged_);
      staged_len_.push_back(static_cast<uint32_t>(staged_.size() - before));
    }
  }

  /// Moves the next `n` frames from the staging buffer to the producer.
  void SendStaged(uint64_t n) {
    if (n == 0) return;
    Stage(n);
    size_t bytes = 0;
    for (uint64_t i = 0; i < n; ++i) {
      bytes += staged_len_[staged_head_ + i];
      if (IsWatermarkFrame(next_frame_ + i)) wm_sched_.push_back(-1);
    }
    producer_.out.append(staged_, staged_pos_, bytes);
    staged_pos_ += bytes;
    staged_head_ += n;
    next_frame_ += n;
    if (staged_head_ == staged_len_.size()) {
      staged_.clear();
      staged_len_.clear();
      staged_head_ = 0;
      staged_pos_ = 0;
    } else if (staged_pos_ > (1u << 20)) {
      staged_.erase(0, staged_pos_);
      staged_len_.erase(staged_len_.begin(),
                        staged_len_.begin() + static_cast<long>(staged_head_));
      staged_head_ = 0;
      staged_pos_ = 0;
    }
  }

  /// Sends `payloads` as frames in one write on a connection with no
  /// traffic in flight and waits for one reply each.
  Result<std::vector<std::string>> Commands(
      Conn* c, const std::vector<std::string>& payloads) {
    CQ_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> replies,
                        CommandsOnEach({c}, {payloads}));
    return std::move(replies[0]);
  }

  /// Commands on several connections at once: conns[i] gets payloads[i].
  Result<std::vector<std::vector<std::string>>> CommandsOnEach(
      const std::vector<Conn*>& conns,
      const std::vector<std::vector<std::string>>& payloads) {
    for (size_t i = 0; i < conns.size(); ++i) {
      conns[i]->replies.clear();
      for (const std::string& p : payloads[i]) {
        conns[i]->out += net::EncodeFrame(p);
      }
    }
    const int64_t deadline = Now() + 10 * kSec;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn* c = conns[i];
      while (c->replies.size() < payloads[i].size()) {
        if (c->eof || Now() > deadline) {
          return Status::IOError("no reply to '" +
                                 payloads[i][c->replies.size()].substr(0, 40) +
                                 "'");
        }
        for (Conn* other : conns) Flush(other);
        Poll(kMs);
      }
    }
    std::vector<std::vector<std::string>> replies;
    for (Conn* c : conns) {
      replies.push_back(std::move(c->replies));
      c->replies.clear();
    }
    return replies;
  }

  void Flush(Conn* c) {
    while (c->out_pos < c->out.size()) {
      const ssize_t n = ::write(c->fd, c->out.data() + c->out_pos,
                                c->out.size() - c->out_pos);
      if (n > 0) {
        c->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      c->eof = true;
      return;
    }
    c->out.clear();  // keeps its capacity: the buffer is reused
    c->out_pos = 0;
  }

  /// Waits up to `timeout_ns` for readiness and handles everything read.
  void Poll(int64_t timeout_ns) {
    pollfd fds[4];
    Conn* conns[4];
    nfds_t n = 0;
    for (Conn* c : AllConns()) {
      if (c->fd < 0 || c->eof) continue;
      conns[n] = c;
      fds[n].fd = c->fd;
      fds[n].events = static_cast<short>(
          POLLIN | (c->out_pos < c->out.size() ? POLLOUT : 0));
      fds[n].revents = 0;
      ++n;
    }
    timespec ts{static_cast<time_t>(timeout_ns / kSec),
                static_cast<long>(timeout_ns % kSec)};
    if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
    for (nfds_t i = 0; i < n; ++i) {
      if (fds[i].revents & POLLOUT) Flush(conns[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Read(conns[i]);
    }
  }

  /// One bounded read per readiness: parsing a large backlog in one go
  /// would hold up both the send schedule and the arrival stamps of frames
  /// still queued in the other sockets.
  void Read(Conn* c) {
    char buf[32 * 1024];
    ssize_t n = 0;
    do {
      n = ::read(c->fd, buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      if (!c->eof && c != &producer_) {
        ++lost_feeds_;
        Cause("a subscriber connection was closed by the server");
      }
      c->eof = true;
      return;
    }
    c->in.append(buf, static_cast<size_t>(n));
    ParseFrames(c, Now());
  }

  void ParseFrames(Conn* c, int64_t arrival) {
    const std::string& in = c->in;
    while (in.size() - c->in_pos >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(in.data()) +
                      c->in_pos;
      const uint32_t len = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
                           (uint32_t{p[2]} << 8) | uint32_t{p[3]};
      if (in.size() - c->in_pos - 4 < len) break;
      const std::string_view payload(in.data() + c->in_pos + 4, len);
      c->in_pos += 4 + len;
      if (capture_) {
        c->replies.emplace_back(payload);
      } else if (c == &producer_) {
        OnAck(payload);
      } else {
        OnData(c, payload, arrival, len + 4);
      }
    }
    if (c->in_pos == in.size()) {
      c->in.clear();
      c->in_pos = 0;
    } else if (c->in_pos > (1u << 16)) {
      c->in.erase(0, c->in_pos);
      c->in_pos = 0;
    }
  }

  void OnAck(std::string_view payload) {
    const uint64_t frame = acked_++;
    if (payload != "OK") {
      ++err_replies_;
      Cause("server replied '" + std::string(payload.substr(0, 80)) + "'");
      return;
    }
    if (closed_measuring_ && !IsWatermarkFrame(frame)) ++closed_push_acks_;
  }

  /// "DATA <sid> t=<ts> <tuple>": digest the text after the sid, and time
  /// the frame from the scheduled send of the watermark that released it.
  void OnData(Conn* c, std::string_view payload, int64_t arrival,
              size_t wire_bytes) {
    last_data_ns_ = arrival;
    if (payload.substr(0, 5) != "DATA ") {
      ++stray_frames_;
      Cause("unexpected frame '" + std::string(payload.substr(0, 40)) + "'");
      return;
    }
    size_t pos = 5;
    size_t sid = 0;
    while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9') {
      sid = sid * 10 + static_cast<size_t>(payload[pos++] - '0');
    }
    if (sid >= c->sid_feed.size() || c->sid_feed[sid] < 0 ||
        payload.substr(pos, 3) != " t=") {
      ++stray_frames_;
      Cause("malformed DATA frame");
      return;
    }
    const std::string_view rest = payload.substr(pos + 1);
    pos += 3;
    int64_t ts = 0;
    while (pos < payload.size() && payload[pos] >= '0' && payload[pos] <= '9' &&
           ts < (int64_t{1} << 50)) {
      ts = ts * 10 + (payload[pos++] - '0');
    }
    uint64_t wm = 0;
    if (!WatermarkIndex(ts, &wm) || wm >= wm_sched_.size()) {
      ++stray_frames_;
      Cause("DATA frame not released by a sent watermark");
      return;
    }
    AddToPeriod(&feeds_[static_cast<size_t>(c->sid_feed[sid])].digests, wm,
                Hash64(rest));
    if (wm_sched_[wm] >= 0) {
      latency_.Record(arrival - wm_sched_[wm]);
      slice_latency_.Record(arrival - wm_sched_[wm]);
    }
    if (closed_measuring_) {
      ++closed_frames_;
      closed_bytes_ += wire_bytes;
    }
  }

  const Workload& w_;
  const Traffic& traffic_;
  ServerHandle server_;
  Conn producer_;
  std::vector<Conn> subs_;
  std::vector<Feed> feeds_;
  bool capture_ = false;
  bool closed_measuring_ = false;
  uint64_t next_frame_ = 0;
  uint64_t acked_ = 0;
  int64_t last_data_ns_ = 0;
  /// Closed loop: frames formatted ahead of next_frame_ (bytes, and each
  /// frame's size); the first staged_pos_ bytes / staged_head_ frames are
  /// already sent.
  std::string staged_;
  std::vector<uint32_t> staged_len_;
  size_t staged_head_ = 0;
  size_t staged_pos_ = 0;
  /// Scheduled send time of each watermark, by watermark index; -1 for
  /// watermarks outside a measured open-loop phase.
  std::vector<int64_t> wm_sched_;
};

// --- CPU placement ---------------------------------------------------------

/// If the scheduler puts the server on the generator's CPU (wake-affine
/// placement follows the socket wakeups) the two preempt each other for
/// milliseconds. With two or more CPUs the generator takes the last one and
/// the server one other, where HostProbe samples its speed: the second, as
/// the first takes more of the kernel's housekeeping (timers, IPIs, device
/// interrupts), when there are three or more.
class CpuPlan {
 public:
  CpuPlan() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
        CPU_COUNT(&allowed) < 2) {
      return;
    }
    std::vector<int> ids;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) ids.push_back(c);
    }
    const int last = ids.back();
    const int server = ids.size() >= 3 ? ids[1] : ids[0];
    CPU_ZERO(&server_);
    CPU_SET(server, &server_);
    cpu_set_t gen;
    CPU_ZERO(&gen);
    CPU_SET(last, &gen);
    split_ = ::sched_setaffinity(0, sizeof(gen), &gen) == 0;
    server_cpu_ = split_ ? server : -1;
  }

  /// CPUs for the server child; null when there is no split.
  const cpu_set_t* server() const { return split_ ? &server_ : nullptr; }
  /// The server's CPU; -1 when there is no split.
  int server_cpu() const { return server_cpu_; }

 private:
  cpu_set_t server_{};
  bool split_ = false;
  int server_cpu_ = -1;
};

// --- Host speed -------------------------------------------------------------

/// \brief Samples the speed of the server's CPU while the server runs on it.
///
/// Each CPU of a shared host runs at a speed set by its neighbours, and
/// that speed holds for minutes: a map-heavy loop pinned to one CPU ran
/// between 2.5M and 4.5M operations per second, independently of the same
/// loop on another CPU, and a saturated server followed it (whole runs at
/// 23k and others at 36k records per second, with nothing else changed).
/// A thread pinned to the server's CPU runs a fixed calibration loop, a
/// std::map kept at 4096 entries, for about half a millisecond every 20 ms
/// and times it in its own CPU time, so sharing the CPU with the server
/// does not count. The end-to-end figures of a phase are scaled to what a
/// CPU on which the loop runs at kReferenceOpsPerUs would give.
class HostProbe {
 public:
  static constexpr double kReferenceOpsPerUs = 5.0;

  explicit HostProbe(int cpu) : thread_([this, cpu] { Loop(cpu); }) {}
  ~HostProbe() { Stop(); }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Stops sampling; the median speed in map operations per microsecond.
  double Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return Median(samples_);
  }

 private:
  static int64_t ThreadCpuNs() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * kSec + ts.tv_nsec;
  }

  void Loop(int cpu) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    constexpr int kOps = 2000;
    std::map<uint64_t, uint64_t> m;
    uint64_t x = 1;
    do {  // at least one sample, however short the phase
      const int64_t t0 = ThreadCpuNs();
      for (int i = 0; i < kOps; ++i) {
        x = SplitMix64(x);
        m[x % 8192] += x;
        if (m.size() > 4096) m.erase(m.begin());
      }
      samples_.push_back(kOps * 1e3 /
                         static_cast<double>(std::max<int64_t>(
                             1, ThreadCpuNs() - t0)));
      const timespec pause{0, 20 * kMs};
      ::nanosleep(&pause, nullptr);
    } while (!stop_.load());
  }

  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::thread thread_;
};

// --- Results ----------------------------------------------------------------

struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> diag;
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<std::string> causes;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char num[32];
  std::snprintf(num, sizeof(num), "%.17g", std::isfinite(v) ? v : 0.0);
  return num;
}

/// Joins rendered JSON values between the two characters of `brackets`.
std::string JsonJoin(const std::vector<std::string>& items,
                     const char* brackets) {
  std::string out(1, brackets[0]);
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  out += brackets[1];
  return out;
}

/// "\"key\":value" with `value` already rendered.
std::string JsonField(const std::string& key, const std::string& value) {
  std::string out = JsonString(key);
  out += ':';
  out += value;
  return out;
}

std::string JsonPairs(const std::vector<std::pair<std::string, double>>& kv) {
  std::vector<std::string> items;
  for (const auto& [key, value] : kv) {
    items.push_back(JsonField(key, JsonNumber(value)));
  }
  return JsonJoin(items, "{}");
}

void PrintOutput(const Workload& w, const Output& o) {
  std::vector<std::string> series;
  for (const auto& [name, values] : o.series) {
    std::vector<std::string> nums;
    for (double v : values) nums.push_back(JsonNumber(v));
    series.push_back(JsonField(name, JsonJoin(nums, "[]")));
  }
  std::vector<std::string> causes;
  for (const std::string& c : o.causes) causes.push_back(JsonString(c));
  std::vector<std::string> queries;
  for (const std::string& q : w.queries) queries.push_back(JsonString(q));
  const std::vector<std::string> params = {
      JsonField("workload", JsonString(w.name)),
      JsonField("shards", std::to_string(w.shards)),
      JsonField("keys", std::to_string(w.keys)),
      JsonField("queries", JsonJoin(queries, "[]")),
      JsonField("feeds", std::to_string(w.feeds_per_query * w.queries.size())),
      JsonField("subscriber_conns", std::to_string(w.subscriber_conns)),
      JsonField("rate_rps", JsonNumber(w.rate)),
      JsonField("closed_window_frames", std::to_string(w.window)),
      JsonField("window", JsonString(w.prefix)),
      JsonField("watermark_every", std::to_string(kWatermarkEvery))};
  const std::vector<std::string> top = {
      JsonField("correct", o.correct ? "true" : "false"),
      JsonField("attempted", std::to_string(o.attempted)),
      JsonField("failed", std::to_string(o.failed)),
      JsonField("metrics", JsonPairs(o.metrics)),
      JsonField("diag", JsonPairs(o.diag)),
      JsonField("series", JsonJoin(series, "{}")),
      JsonField("causes", JsonJoin(causes, "[]")),
      JsonField("params", JsonJoin(params, "{}"))};
  std::printf("%s\n", JsonJoin(top, "{}").c_str());
  std::fflush(stdout);
}

/// Compares every feed against the oracle, period by period. A period the
/// feed never received is a dropped batch: its frames count as missing
/// (failed operations). Any other difference is a wrong result and fails
/// the run.
Status CheckAgainstOracle(const Workload& w, const Traffic& traffic,
                          Session* s, Output* out) {
  CQ_ASSIGN_OR_RETURN(std::vector<PeriodDigests> expected,
                      RunOracle(w, traffic, s->frames_sent()));
  uint64_t expected_frames = 0;
  uint64_t missing = 0;
  uint64_t wrong_periods = 0;
  const Digest none;
  for (const Feed& f : s->feeds()) {
    const PeriodDigests& want = expected[f.query];
    const size_t periods = std::max(want.size(), f.digests.size());
    for (size_t p = 0; p < periods; ++p) {
      const Digest& w_p = p < want.size() ? want[p] : none;
      const Digest& g_p = p < f.digests.size() ? f.digests[p] : none;
      expected_frames += w_p.frames;
      if (g_p == w_p) continue;
      if (g_p.frames == 0) {
        missing += w_p.frames;
      } else {
        ++wrong_periods;
      }
    }
  }
  if (wrong_periods > 0) {
    out->correct = false;
    s->causes_.push_back("oracle digest mismatch in " +
                         std::to_string(wrong_periods) + " watermark periods");
  }
  if (missing > 0) {
    s->causes_.push_back(std::to_string(missing) + " of " +
                         std::to_string(expected_frames) +
                         " expected frames missing (dropped batches)");
  }
  out->attempted = s->records_sent() + expected_frames;
  out->failed = s->err_replies_ + s->lost_feeds_ + s->stray_frames_ + missing;
  if (s->err_replies_ + s->stray_frames_ > 0) out->correct = false;
  out->diag.push_back(
      {"expected_frames", static_cast<double>(expected_frames)});
  out->diag.push_back({"missing_frames", static_cast<double>(missing)});
  out->diag.push_back({"wrong_periods", static_cast<double>(wrong_periods)});
  return Status::OK();
}

void WriteFile(const std::string& dir, const std::string& name,
               const std::string& body) {
  if (dir.empty()) return;
  std::ofstream(dir + "/" + name) << body << "\n";
}

/// Sum of "reused=N" over the STATS reply's query lines, and its
/// "operators=N".
void ParseStats(const std::string& stats, double* operators, double* reused) {
  *operators = 0;
  *reused = 0;
  const size_t op = stats.find("operators=");
  if (op != std::string::npos) {
    *operators = std::strtod(stats.c_str() + op + 10, nullptr);
  }
  for (size_t at = stats.find(" reused="); at != std::string::npos;
       at = stats.find(" reused=", at + 1)) {
    *reused += std::strtod(stats.c_str() + at + 8, nullptr);
  }
}

/// Median over the open loop's windows of each window's p90 latency,
/// counting only windows in which the host took at most one tick (10 ms)
/// of CPU time from the VM. A vCPU descheduled by the host stalls the
/// server or the generator for milliseconds; in runs where the host did
/// that often, most windows' p90 was 2–10 ms, which describes the host and
/// not the program. With fewer than a quarter of the windows quiet, all
/// count. `*quiet` is the number of windows used.
double QuietWindowP90(const std::vector<double>& p90_us,
                      const std::vector<double>& steal_ticks, size_t* quiet) {
  std::vector<double> kept;
  for (size_t i = 0; i < p90_us.size() && i < steal_ticks.size(); ++i) {
    if (steal_ticks[i] <= 1) kept.push_back(p90_us[i]);
  }
  if (kept.size() * 4 < p90_us.size()) kept = p90_us;
  *quiet = kept.size();
  return Median(kept);
}

/// Untraced run: the end-to-end metrics.
Status RunEndToEnd(const Workload& w, const Traffic& traffic, double seconds,
                   const CpuPlan& cpus, const std::string& out_dir,
                   Output* out) {
  constexpr int kSetups = 11;
  std::vector<double> setups;
  std::unique_ptr<Session> s;
  for (int i = 0; i < kSetups; ++i) {
    ServerHandle server = StartServer(w, ServerOptions{}, cpus.server());
    if (server.pid < 0) return Status::IOError("server did not start");
    s = std::make_unique<Session>(w, traffic, server);
    auto setup = s->Setup();
    if (!setup.ok() || i + 1 < kSetups) {
      s->Close();
      StopServer(&server);
      CQ_RETURN_NOT_OK(setup.status());
    }
    setups.push_back(*setup);
  }
  ServerHandle server = s->server();
  const double setup_s = Median(setups);

  s->OpenLoop(2.0, /*measure=*/false);  // warm-up
  const int64_t cpu0 = ChildCpuNs(server.pid);
  HostProbe open_probe(cpus.server_cpu());
  s->OpenLoop(seconds / 2, /*measure=*/true);
  const double open_probe_ops_per_us = open_probe.Stop();
  const int64_t open_cpu_ns = ChildCpuNs(server.pid) - cpu0;
  s->ClosedLoop(0.5, /*measure=*/false);
  HostProbe probe(cpus.server_cpu());
  s->ClosedLoop(seconds / 2, /*measure=*/true);
  const double probe_ops_per_us = probe.Stop();
  Status drained = s->Quiesce();
  const Scrape scrape = ParseScrape(HttpGet(server.port, "/metrics"));
  auto stats = s->Control("STATS");
  WriteFile(out_dir, "stats.txt", stats.ok() ? *stats : "");
  WriteFile(out_dir, "queries.json", HttpGet(server.port, "/queries"));
  const double rss_mb = ChildPeakRssMb(server.pid);
  s->Close();
  StopServer(&server);
  CQ_RETURN_NOT_OK(drained);

  const double drops = SumSeries(scrape, "cq_service_subscription_drops_total");
  CQ_RETURN_NOT_OK(CheckAgainstOracle(w, traffic, s.get(), out));
  if (drops > 0) {
    s->causes_.push_back(
        std::to_string(static_cast<uint64_t>(drops)) +
        " batches dropped on exhausted subscription credits");
  }

  const double closed_s = static_cast<double>(s->closed_ns_) / 1e9;
  const double raw_rps =
      Ratio(static_cast<double>(s->closed_push_acks_), closed_s);
  const double raw_fps = Ratio(static_cast<double>(s->closed_frames_), closed_s);
  const double raw_p50 = s->latency_.Quantile(0.50) / 1e3;
  size_t quiet_windows = 0;
  const double raw_p90 =
      QuietWindowP90(s->open_slices_.latency_p90_us,
                     s->open_slices_.steal_ticks, &quiet_windows);
  const double raw_cpu = Ratio(static_cast<double>(open_cpu_ns) / 1e3,
                               static_cast<double>(s->open_records_));
  // Rates scale with the CPU's speed, times inversely; each phase by the
  // speed sampled during it.
  const double closed_speed =
      Ratio(probe_ops_per_us, HostProbe::kReferenceOpsPerUs);
  const double open_speed =
      Ratio(open_probe_ops_per_us, HostProbe::kReferenceOpsPerUs);
  out->metrics = {
      {"setup_s", setup_s},
      {"throughput_rps", Ratio(raw_rps, closed_speed)},
      {"delivered_fps", Ratio(raw_fps, closed_speed)},
      {"latency_p50_us", raw_p50 * open_speed},
      {"latency_p90_us", raw_p90 * open_speed},
      {"cpu_us_per_record", raw_cpu * open_speed},
      {"peak_rss_mb", rss_mb},
  };
  out->diag.insert(
      out->diag.end(),
      {{"throughput_rps_unscaled", raw_rps},
       {"delivered_fps_unscaled", raw_fps},
       {"latency_p50_us_unscaled", raw_p50},
       {"latency_p90_us_unscaled", raw_p90},
       {"latency_p90_windows_used", static_cast<double>(quiet_windows)},
       {"latency_p90_us_all_windows",
        Median(s->open_slices_.latency_p90_us)},
       {"cpu_us_per_record_unscaled", raw_cpu},
       {"host.probe_ops_per_us", probe_ops_per_us},
       {"host.open_probe_ops_per_us", open_probe_ops_per_us},
       {"latency_p90_us_all_samples", s->latency_.Quantile(0.90) / 1e3},
       {"latency_p99_us", s->latency_.Quantile(0.99) / 1e3},
       {"latency_samples", static_cast<double>(s->latency_.count())},
       {"error_ratio", Ratio(static_cast<double>(out->failed),
                             static_cast<double>(out->attempted))},
       {"server.busy_ratio",
        Ratio(static_cast<double>(s->closed_cpu_ns_),
              static_cast<double>(s->closed_ns_))},
       {"gen.lag_us_p99", s->lag_.Quantile(0.99) / 1e3},
       {"gen.lag_us_p50", s->lag_.Quantile(0.50) / 1e3},
       {"gen.lag_us_p90", s->lag_.Quantile(0.90) / 1e3},
       {"gen.lag_us_max", s->lag_.Quantile(1.0) / 1e3},
       {"gen.involuntary_switches", static_cast<double>(s->nivcsw_)},
       {"open_records", static_cast<double>(s->open_records_)},
       {"closed_records", static_cast<double>(s->closed_push_acks_)},
       {"records_total", static_cast<double>(s->records_sent())}});
  out->series = {
      {"setup_s", setups},
      {"closed_rps_per_half_second", s->closed_slices_.rps},
      {"closed_fps_per_half_second", s->closed_slices_.fps},
      {"open_cpu_us_per_record_per_half_second",
       s->open_slices_.cpu_us_per_record},
      {"open_latency_p90_us_per_half_second", s->open_slices_.latency_p90_us},
      {"open_steal_ticks_per_half_second", s->open_slices_.steal_ticks}};
  out->causes = s->causes_;
  return Status::OK();
}

/// CPU per record of a fresh server over an open-loop phase.
Result<double> OpenLoopCpuPerRecord(const Workload& w, const Traffic& traffic,
                                    double seconds, ServerOptions options,
                                    const CpuPlan& cpus) {
  ServerHandle server = StartServer(w, options, cpus.server());
  if (server.pid < 0) return Status::IOError("server did not start");
  Session s(w, traffic, server);
  auto setup = s.Setup();
  double per_record = 0;
  if (setup.ok()) {
    s.OpenLoop(1.0, false);
    const int64_t cpu0 = ChildCpuNs(server.pid);
    s.OpenLoop(seconds, true);
    per_record = Ratio(static_cast<double>(ChildCpuNs(server.pid) - cpu0) / 1e3,
                       static_cast<double>(s.open_records_));
  }
  s.Close();
  StopServer(&server);
  CQ_RETURN_NOT_OK(setup.status());
  return per_record;
}

/// Traced run: the per-layer breakdown. Layer times come from a server
/// that traces one push in kSampleEvery, so span recording barely touches
/// the operator self times it is meant to split; the tracing overhead is
/// priced separately at query_server's every-push setting.
Status RunLayers(const Workload& w, const Traffic& traffic, double seconds,
                 const CpuPlan& cpus, const std::string& out_dir,
                 Output* out) {
  constexpr size_t kSampleEvery = 64;
  CQ_ASSIGN_OR_RETURN(
      const double untraced_cpu_per_record,
      OpenLoopCpuPerRecord(w, traffic, seconds / 8, ServerOptions{}, cpus));
  CQ_ASSIGN_OR_RETURN(
      const double every_push_cpu_per_record,
      OpenLoopCpuPerRecord(w, traffic, seconds / 8,
                           ServerOptions{/*trace_every=*/1, false}, cpus));

  ServerHandle server =
      StartServer(w, ServerOptions{kSampleEvery, /*decorate=*/true},
                  cpus.server());
  if (server.pid < 0) return Status::IOError("server did not start");
  Session s(w, traffic, server);
  auto setup = s.Setup();
  if (!setup.ok()) {
    StopServer(&server);
    return setup.status();
  }
  s.OpenLoop(1.0, false);
  s.OpenLoop(seconds / 4, true);
  Status st = s.Quiesce();
  const Scrape m1 = ParseScrape(HttpGet(server.port, "/metrics"));
  const std::string b1 = HttpGet(server.port, "/bench");
  s.ClosedLoop(seconds / 2, true);
  if (st.ok()) st = s.Quiesce();
  const std::string b2 = HttpGet(server.port, "/bench");
  const Scrape m2 = ParseScrape(HttpGet(server.port, "/metrics"));
  auto stats = s.Control("STATS");
  WriteFile(out_dir, "stats_traced.txt", stats.ok() ? *stats : "");
  s.Close();
  StopServer(&server);
  CQ_RETURN_NOT_OK(st);
  CQ_RETURN_NOT_OK(CheckAgainstOracle(w, traffic, &s, out));

  const uint64_t replay_records = static_cast<uint64_t>(w.rate * 2);
  CQ_ASSIGN_OR_RETURN(
      LayerReplay replay,
      ReplayLayers(w, traffic,
                   replay_records / kWatermarkEvery * kFramesPerPeriod));

  auto bench = [&](const char* key) {
    return ReadJsonNumber(b2, key) - ReadJsonNumber(b1, key);
  };
  const double records = bench("records");
  auto per_record_us = [&](double us) { return Ratio(us, records); };
  auto self_us = [&](const char* prefix) {
    return DeltaSeries(m1, m2, "cq_dataflow_process_latency_us_sum", prefix);
  };
  const double read_us = DeltaSeries(m1, m2, "cq_net_read_us_sum");
  const double write_us = DeltaSeries(m1, m2, "cq_net_write_us_sum");
  const double seam_us =
      (bench("push_ns") + bench("watermark_ns") + bench("poll_ns")) / 1e3;
  const double service_us = (bench("push_ns") + bench("watermark_ns")) / 1e3;
  double operators = 0;
  double reused = 0;
  ParseStats(stats.ok() ? *stats : "", &operators, &reused);
  const double flt_in =
      DeltaSeries(m1, m2, "cq_dataflow_records_in_total", "flt:");
  const double flt_out =
      DeltaSeries(m1, m2, "cq_dataflow_records_out_total", "flt:");
  const double fallback =
      DeltaSeries(m1, m2, "cq_dataflow_row_fallback_batches_total");
  const double vectorized =
      DeltaSeries(m1, m2, "cq_dataflow_vectorized_batches_total");
  std::vector<double> shard_records;
  for (const auto& [key, value] : m2) {
    if (key.rfind("cq_shard_records_total{", 0) != 0) continue;
    auto before = m1.find(key);
    shard_records.push_back(value - (before == m1.end() ? 0 : before->second));
  }
  double skew = 1.0;
  if (!shard_records.empty()) {
    double sum = 0;
    double max = 0;
    for (double v : shard_records) {
      sum += v;
      max = std::max(max, v);
    }
    skew = Ratio(max, sum / static_cast<double>(shard_records.size()));
  }
  const double closed_frames = static_cast<double>(s.closed_frames_);

  out->metrics = {
      {"net.handler_us_per_record", per_record_us(read_us)},
      {"net.self_us_per_record", per_record_us(read_us - seam_us - write_us)},
      {"net.write_us_per_record", per_record_us(write_us)},
      {"net.frames_per_wakeup",
       Ratio(DeltaSeries(m1, m2, "cq_net_frames_total"),
             DeltaSeries(m1, m2, "cq_net_read_us_count"))},
      {"net.decode_ns_per_frame", replay.decode_ns_per_frame},
      {"net.parse_ns_per_record", replay.parse_ns_per_record},
      {"net.mux_ns_per_frame", replay.mux_ns_per_frame},
      {"net.bytes_per_frame",
       Ratio(static_cast<double>(s.closed_bytes_), closed_frames)},
      {"service.push_us_per_record", Ratio(bench("push_ns") / 1e3, records)},
      {"service.plan_us_per_record", per_record_us(self_us("plan:"))},
      {"service.window_us_per_record", per_record_us(self_us("win:"))},
      {"service.sink_us_per_record", per_record_us(self_us("sink:"))},
      {"service.operators", operators},
      {"service.nodes_reused", reused},
      {"service.state_bytes", SumSeries(m2, "cq_dataflow_state_bytes")},
      {"service.register_ms_per_query",
       Ratio(ReadJsonNumber(b2, "register_ns") / 1e6,
             ReadJsonNumber(b2, "registers"))},
      {"dataflow.source_us_per_record", per_record_us(self_us("src:"))},
      {"dataflow.filter_us_per_record", per_record_us(self_us("flt:"))},
      {"dataflow.filter_selectivity", Ratio(flt_out, flt_in)},
      {"dataflow.row_fallback_ratio", Ratio(fallback, fallback + vectorized)},
      {"runtime.poll_us_per_frame",
       Ratio(bench("poll_ns") / 1e3, bench("polled_records"))},
      // Spans retained at the end of the open loop: the queue wait behind
      // the latency figures, not behind a saturated closed loop.
      {"runtime.queue_wait_us_p50", ReadJsonNumber(b1, "queue_wait_us_p50")},
      {"runtime.subscription_drops",
       SumSeries(m2, "cq_service_subscription_drops_total")},
      {"shard.route_us_per_record",
       per_record_us(service_us - self_us(""))},
      {"shard.skew_ratio", skew},
      {"obs.trace_overhead_ratio",
       Ratio(every_push_cpu_per_record, untraced_cpu_per_record) - 1},
      {"server.busy_ratio", Ratio(static_cast<double>(s.closed_cpu_ns_),
                                  static_cast<double>(s.closed_ns_))},
      {"gen.lag_us_p99", s.lag_.Quantile(0.99) / 1e3},
  };
  out->diag.insert(
      out->diag.end(),
      {{"latency_p50_us", s.latency_.Quantile(0.50) / 1e3},
       {"latency_samples", static_cast<double>(s.latency_.count())},
       {"closed_records", records},
       {"untraced_cpu_us_per_record", untraced_cpu_per_record},
       {"every_push_traced_cpu_us_per_record", every_push_cpu_per_record},
       {"net.read_us", read_us},
       {"service.op_self_us", self_us("")},
       {"replay_records", static_cast<double>(replay_records)}});
  out->causes = s.causes_;
  return Status::OK();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc == 6 && std::strcmp(argv[1], "--serve-child") == 0) {
    const Workload* w = FindWorkload(argv[2]);
    if (w == nullptr) return 2;
    ServerOptions options;
    options.trace_every = std::strtoul(argv[3], nullptr, 10);
    options.decorate = std::strcmp(argv[4], "1") == 0;
    return RunServerChild(*w, options, std::atoi(argv[5]));
  }
  std::string workload;
  std::string out_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--out") {
      out_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  ::signal(SIGPIPE, SIG_IGN);
  // Timed waits in the open loop should wake when asked, not up to 50 us
  // later.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);

  const Traffic traffic(seed, w->keys);
  const CpuPlan cpus;
  Output out;
  Status st = trace == 0
                  ? RunEndToEnd(*w, traffic, seconds, cpus, out_dir, &out)
                  : RunLayers(*w, traffic, seconds, cpus, out_dir, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  PrintOutput(*w, out);
  return 0;
}

}  // namespace cq::perfbench

int main(int argc, char** argv) { return cq::perfbench::Main(argc, argv); }
