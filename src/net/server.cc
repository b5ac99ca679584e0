#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"

namespace cq::net {

// --- Protocol helpers -------------------------------------------------------

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

Result<SchemaPtr> ParseSchema(const std::string& spec) {
  std::vector<Field> fields;
  for (const std::string& part : SplitCsv(spec)) {
    size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad column spec '" + part +
                                     "' (want name:type)");
    }
    std::string name = part.substr(0, colon);
    std::string type = part.substr(colon + 1);
    if (type == "int64") {
      fields.push_back({name, ValueType::kInt64});
    } else if (type == "double") {
      fields.push_back({name, ValueType::kDouble});
    } else if (type == "string") {
      fields.push_back({name, ValueType::kString});
    } else if (type == "bool") {
      fields.push_back({name, ValueType::kBool});
    } else {
      return Status::InvalidArgument("unknown type '" + type + "'");
    }
  }
  return Schema::Make(std::move(fields));
}

Result<Tuple> ParseRow(const std::string& csv, const Schema& schema) {
  std::vector<std::string> fields = SplitCsv(csv);
  if (fields.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(fields.size()) + " fields, schema wants " +
        std::to_string(schema.num_fields()));
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    const char* first = f.data();
    const char* last = f.data() + f.size();
    // A field is valid only if it is wholly a value of its column's type:
    // "12abc" in an int64 column is an error, not 12.
    bool ok = true;
    switch (schema.field(i).type) {
      case ValueType::kInt64: {
        int64_t v = 0;
        auto [end, ec] = std::from_chars(first, last, v);
        ok = ec == std::errc() && end == last;
        values.emplace_back(v);
        break;
      }
      case ValueType::kDouble: {
        double v = 0;
        auto [end, ec] = std::from_chars(first, last, v);
        ok = ec == std::errc() && end == last;
        values.emplace_back(v);
        break;
      }
      case ValueType::kBool:
        ok = f == "true" || f == "false" || f == "1" || f == "0";
        values.emplace_back(f == "true" || f == "1");
        break;
      default:
        values.emplace_back(f);
        break;
    }
    if (!ok) {
      return Status::InvalidArgument("bad value '" + f + "' for column " +
                                     std::to_string(i));
    }
  }
  return Tuple(std::move(values));
}

namespace {

/// Parses an unsigned decimal id; the wire protocol must not throw on
/// garbage input.
Result<uint64_t> ParseId(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("missing id");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad id '" + s + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("id '" + s + "' out of range");
    }
    v = v * 10 + digit;
  }
  return v;
}

Result<int64_t> ParseTimestamp(const std::string& s) {
  bool neg = !s.empty() && s[0] == '-';
  CQ_ASSIGN_OR_RETURN(uint64_t v, ParseId(neg ? s.substr(1) : s));
  return neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
}

/// The frame path is capped at kMaxFrameBytes; HTTP requests need their own
/// (much smaller) bound so a header that never terminates cannot grow a
/// connection's read buffer without limit.
constexpr size_t kMaxHttpHeaderBytes = 8 * 1024;

std::string HttpResponse(const char* status_line,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status_line;
  out += "\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// A batch's records rendered as the shared tail of their DATA frames,
/// " t=<ts> <tuple>", back to back. A push frame puts "DATA <sid>" ahead of
/// a slice, a POLL reply a bare "DATA".
class RenderedRecords {
 public:
  explicit RenderedRecords(const StreamBatch& batch) {
    for (const StreamElement& e : batch) {
      if (!e.is_record()) continue;
      text_ += " t=";
      text_ += std::to_string(e.timestamp);
      text_ += ' ';
      text_ += e.tuple.ToString();
      ends_.push_back(text_.size());
    }
  }
  size_t size() const { return ends_.size(); }
  std::string_view slice(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(text_).substr(begin, ends_[i] - begin);
  }

 private:
  std::string text_;
  std::vector<size_t> ends_;  // end offset of each record's slice
};

}  // namespace

// --- SubscriberMux ----------------------------------------------------------

SubscriberMux::SubscriberMux(MuxConfig config) : config_(config) {
  if (config_.metrics != nullptr) {
    subscribers_gauge_ = config_.metrics->GetGauge("cq_net_subscribers");
    evicted_counter_ = config_.metrics->GetCounter("cq_net_evicted_total");
  }
}

uint64_t SubscriberMux::Add(uint64_t sid, std::string tenant,
                            std::unique_ptr<SubscriberFeed> feed,
                            MuxSink* sink) {
  uint64_t id = next_entry_id_++;
  Entry entry;
  entry.sid = sid;
  entry.tenant = std::move(tenant);
  entry.feed = std::move(feed);
  entry.sink = sink;
  entry.prefix = "DATA " + std::to_string(sid);
  entries_.emplace(id, std::move(entry));
  sinks_.try_emplace(sink);
  if (subscribers_gauge_) subscribers_gauge_->Set(entries_.size());
  return id;
}

void SubscriberMux::RemoveSink(MuxSink* sink) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.sink == sink) {
      if (it->second.feed) it->second.feed->Cancel();
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  sinks_.erase(sink);
  if (subscribers_gauge_) subscribers_gauge_->Set(entries_.size());
}

struct SubscriberMux::Rendered {
  RenderedRecords records;
  StreamBatch batch;  // pins the payload whose address keys the cache
};

std::shared_ptr<const SubscriberMux::Rendered> SubscriberMux::Render(
    StreamBatch batch) {
  auto [it, inserted] = render_cache_.try_emplace(batch.elements().data());
  if (inserted) {
    RenderedRecords records(batch);
    it->second = std::make_shared<const Rendered>(
        Rendered{std::move(records), std::move(batch)});
  }
  return it->second;
}

size_t SubscriberMux::Admit(const Entry& entry, int64_t now_ns, bool force) {
  if (config_.quotas == nullptr) return frame_bytes_.size();
  if (!force) {
    return config_.quotas->AdmitEgress(entry.tenant, frame_bytes_, now_ns);
  }
  // Drain path: the gate is bypassed but the per-tenant egress accounting
  // stays truthful.
  uint64_t total = 0;
  for (uint64_t bytes : frame_bytes_) total += bytes;
  config_.quotas->NoteEgress(entry.tenant, total);
  return frame_bytes_.size();
}

void SubscriberMux::SendFrame(Entry* entry, std::string_view head,
                              std::string_view body) {
  frame_.clear();
  AppendFrame(&frame_, head, body);
  entry->sink->Deliver(frame_);
  frames_delivered_++;
}

void SubscriberMux::DeliverEntry(Entry* entry, int64_t now_ns, bool force) {
  while (true) {
    if (entry->staged != nullptr) {
      const RenderedRecords& records = entry->staged->records;
      frame_bytes_.clear();
      for (size_t i = entry->next; i < records.size(); ++i) {
        frame_bytes_.push_back(sizeof(uint32_t) + entry->prefix.size() +
                               records.slice(i).size());
      }
      const size_t end = entry->next + Admit(*entry, now_ns, force);
      for (; entry->next < end; ++entry->next) {
        SendFrame(entry, entry->prefix, records.slice(entry->next));
      }
      // Throttled: the rest stays staged for a later pump.
      if (entry->next < records.size()) return;
      entry->staged.reset();
    }
    if (entry->closed_notified) return;
    // Read before polling: closed and then found empty means drained.
    const bool closed = entry->feed->Closed();
    StreamBatch batch;
    if (entry->feed->TryPoll(&batch)) {
      if (batch.num_records() > 0) {
        entry->staged = Render(std::move(batch));
        entry->next = 0;
      }
      continue;
    }
    if (closed) {
      const std::string head = "CLOSED " + std::to_string(entry->sid);
      frame_bytes_.assign(1, sizeof(uint32_t) + head.size());
      if (Admit(*entry, now_ns, force) == 1) {
        SendFrame(entry, head, /*body=*/{});
        entry->closed_notified = true;
      }
    }
    return;
  }
}

void SubscriberMux::EndPass() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.closed_notified) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  if (subscribers_gauge_) subscribers_gauge_->Set(entries_.size());
  render_cache_.clear();
}

size_t SubscriberMux::Pump(int64_t now_ns) {
  const uint64_t before = frames_delivered_;

  // Watermark pass: decide per sink whether it may receive more bytes, and
  // find consumers that out-stayed the eviction grace.
  std::vector<MuxSink*> victims;
  for (auto& [sink, state] : sinks_) {
    if (sink->PendingBytes() > config_.write_high_watermark) {
      if (state.over_since_ns < 0) {
        state.over_since_ns = now_ns;
      } else if (now_ns - state.over_since_ns > config_.eviction_grace_ns) {
        victims.push_back(sink);
      }
    } else {
      state.over_since_ns = -1;
    }
  }

  for (auto& [id, entry] : entries_) {
    auto sit = sinks_.find(entry.sink);
    if (sit != sinks_.end() && sit->second.over_since_ns >= 0) {
      continue;  // backed up: stop copying, let the channel absorb (or drop)
    }
    DeliverEntry(&entry, now_ns, /*force=*/false);
  }
  EndPass();

  for (MuxSink* sink : victims) {
    if (evicted_counter_) evicted_counter_->Increment();
    FlightRecorder::Global().Record("net", "evict", "slow consumer",
                                    static_cast<int64_t>(sink->PendingBytes()),
                                    static_cast<int64_t>(
                                        config_.write_high_watermark));
    if (evict_handler_) {
      evict_handler_(sink);  // handler calls RemoveSink (closing the conn)
    } else {
      RemoveSink(sink);
    }
    // Published after the removal, for readers on other threads.
    num_evicted_.fetch_add(1, std::memory_order_release);
  }
  return frames_delivered_ - before;
}

size_t SubscriberMux::FlushAll() {
  const uint64_t before = frames_delivered_;
  for (auto& [id, entry] : entries_) {
    DeliverEntry(&entry, /*now_ns=*/0, /*force=*/true);
  }
  EndPass();
  return frames_delivered_ - before;
}

// --- Server::Connection -----------------------------------------------------

/// One accepted socket: framing state, write backlog, tenant binding and
/// poll-mode subscriptions. Push-mode (LISTEN) feeds live in the mux, which
/// delivers into this object through the MuxSink interface.
class Server::Connection : public MuxSink {
 public:
  Connection(Server* server, int fd) : server_(server), fd_(fd) {}

  bool Deliver(std::string_view wire) override {
    wbuf_.Append(wire);
    return true;
  }
  size_t PendingBytes() const override { return wbuf_.size(); }

  Server* server_;
  int fd_;
  FrameReader reader_;
  WriteBuffer wbuf_;
  std::string tenant_ = "default";
  bool is_http_ = false;
  bool protocol_known_ = false;
  bool close_after_flush_ = false;
  bool out_armed_ = false;
  uint64_t next_sub_handle_ = 1;
  /// SUBSCRIBE/POLL-mode feeds, drained on client request.
  std::map<uint64_t, std::unique_ptr<SubscriberFeed>> poll_subs_;
};

// --- Server -----------------------------------------------------------------

struct Server::IngestFrame {
  std::string stream;
  SchemaPtr schema;  // a PUSH's stream schema; null for a WATERMARK
  StreamElement element;
};

struct Server::IngestRun {
  std::string stream;
  SchemaPtr schema;  // `stream`'s schema once a PUSH looked it up
  StreamBatch batch;
  size_t frames = 0;
};

Server::Server(ServiceBackend* backend, ServerConfig config)
    : backend_(backend),
      config_(config),
      mux_(MuxConfig{config.write_high_watermark,
                     config.eviction_grace_ms * 1'000'000,
                     config.quotas != nullptr ? config.quotas : &owned_quotas_,
                     config.metrics}),
      quotas_(config.quotas != nullptr ? config.quotas : &owned_quotas_) {
  if (config_.metrics != nullptr) {
    connections_gauge_ = config_.metrics->GetGauge("cq_net_connections");
    accepted_counter_ =
        config_.metrics->GetCounter("cq_net_accepted_total");
    frames_counter_ = config_.metrics->GetCounter("cq_net_frames_total");
    accept_us_ = config_.metrics->GetHistogram("cq_net_accept_us");
    read_us_ = config_.metrics->GetHistogram("cq_net_read_us");
    write_us_ = config_.metrics->GetHistogram("cq_net_write_us");
  }
  mux_.SetEvictHandler([this](MuxSink* sink) {
    CloseConnection(static_cast<Connection*>(sink), "slow consumer evicted");
  });
}

Server::~Server() {
  if (listener_ >= 0) ::close(listener_);
  for (auto& [fd, conn] : conns_) ::close(fd);
}

Status Server::Init() {
  CQ_RETURN_NOT_OK(loop_.Init());
  listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener_ < 0) {
    return Status::IOError("socket: " + std::string(strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener_, SOMAXCONN) < 0) {
    Status st =
        Status::IOError("bind/listen: " + std::string(strerror(errno)));
    ::close(listener_);
    listener_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = config_.port;
  }
  // Level-triggered: one accept burst per wakeup, kernel re-reports backlog.
  CQ_RETURN_NOT_OK(
      loop_.Add(listener_, EPOLLIN, [this](uint32_t) { HandleAccept(); }));
  loop_.SetWakeHandler([this](uint64_t) { BeginDrain(); });
  return Status::OK();
}

void Server::AddHttpRoute(std::string path, std::string content_type,
                          std::function<std::string()> handler) {
  http_routes_[std::move(path)] =
      HttpRoute{std::move(content_type), std::move(handler)};
}

void Server::Run() {
  loop_.Run(config_.tick_ms, [this] { OnTick(); });
}

void Server::HandleAccept() {
  ScopedTimer timer(accept_us_);
  while (true) {
    int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: burst drained (or listener closed)
    }
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                   sizeof(config_.so_sndbuf));
    }
    auto conn = std::make_unique<Connection>(this, fd);
    Status st = loop_.Add(fd, EPOLLIN | EPOLLET, [this, fd](uint32_t events) {
      HandleConnEvent(fd, events);
    });
    if (!st.ok()) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    if (accepted_counter_) accepted_counter_->Increment();
    if (connections_gauge_) connections_gauge_->Set(conns_.size());
    FlightRecorder::Global().Record("net", "accept", "", fd,
                                    static_cast<int64_t>(conns_.size()));
  }
}

void Server::HandleConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(conn, "hangup");
    return;
  }

  if (events & EPOLLIN) {
    ScopedTimer timer(read_us_);
    char buf[4096];
    bool eof = false;
    while (true) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn->reader_.Append(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn, std::string("read: ") + strerror(errno));
      return;
    }

    if (!conn->protocol_known_ && conn->reader_.buffered_bytes() >= 4) {
      // An HTTP request line cannot be a frame header: "GET " decodes as a
      // length far beyond the 1 MiB cap.
      conn->is_http_ = conn->reader_.unconsumed().substr(0, 4) == "GET ";
      conn->protocol_known_ = true;
    }

    if (conn->is_http_) {
      std::string_view req = conn->reader_.unconsumed();
      if (req.find("\r\n\r\n") != std::string_view::npos) {
        std::string response = HandleHttp(conn, std::string(req));
        conn->wbuf_.Append(response);
        conn->close_after_flush_ = true;
      } else if (!conn->close_after_flush_ &&
                 conn->reader_.buffered_bytes() > kMaxHttpHeaderBytes) {
        // A request line that never terminates must not buffer without
        // bound. Reject, stop reading (SHUT_RD caps further inbound bytes
        // at the kernel), and release what accumulated.
        conn->reader_.Clear();
        ::shutdown(fd, SHUT_RD);
        conn->wbuf_.Append(
            HttpResponse("431 Request Header Fields Too Large", "text/plain",
                         "header too large\n"));
        conn->close_after_flush_ = true;
      } else if (eof && !conn->close_after_flush_) {
        CloseConnection(conn, "http eof before request end");
        return;
      }
    } else {
      std::string line;
      IngestRun run;
      while (true) {
        auto next = conn->reader_.Next(&line);
        if (!next.ok()) {
          FlushIngest(conn, &run);
          conn->wbuf_.Append(
              EncodeFrame("ERR " + next.status().ToString()));
          conn->close_after_flush_ = true;
          break;
        }
        if (!*next) break;
        if (frames_counter_) frames_counter_->Increment();
        if (GatherIngest(conn, line, &run)) continue;
        FlushIngest(conn, &run);
        if (line == "QUIT" || line.rfind("QUIT ", 0) == 0) {
          conn->wbuf_.Append(EncodeFrame("OK bye"));
          conn->close_after_flush_ = true;
          break;
        }
        conn->wbuf_.Append(EncodeFrame(DispatchCommand(conn, line)));
      }
      FlushIngest(conn, &run);
      // Commands that pushed data should reach push-mode listeners without
      // waiting a tick.
      if (!PumpMux(conn)) return;
    }

    if (!FlushConnection(conn)) return;
    if (eof) {
      CloseConnection(conn, "eof");
      return;
    }
  }

  if (events & EPOLLOUT) {
    const bool was_over = conn->wbuf_.size() > config_.write_high_watermark;
    if (!FlushConnection(conn)) return;
    // The mux skips a LISTENer while it is over the watermark; once the
    // socket takes it back under, resume its feeds now, not at the tick.
    if (was_over && conn->wbuf_.size() <= config_.write_high_watermark) {
      if (!PumpMux(conn)) return;
      FlushConnection(conn);
    }
  }
}

bool Server::PumpMux(Connection* conn) {
  const int fd = conn->fd_;
  mux_.Pump(MonotonicNanos());
  // The pump's evict handler may have closed connections — including
  // `conn` (a LISTENer over the watermark past its grace). Re-resolve
  // before touching it again; no accept ran in between, so finding the fd
  // means finding the same connection.
  if (conns_.find(fd) == conns_.end()) return false;
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* other = (it++)->second.get();  // flush may erase
    if (other != conn && !other->wbuf_.empty()) FlushConnection(other);
  }
  return true;
}

bool Server::FlushConnection(Connection* conn) {
  ScopedTimer timer(write_us_);
  bool would_block = false;
  Status st = conn->wbuf_.FlushTo(conn->fd_, &would_block);
  if (!st.ok()) {
    CloseConnection(conn, st.ToString());
    return false;
  }
  if (would_block && !conn->out_armed_) {
    conn->out_armed_ = true;
    (void)loop_.Modify(conn->fd_, EPOLLIN | EPOLLOUT | EPOLLET);
  } else if (!would_block && conn->out_armed_) {
    conn->out_armed_ = false;
    (void)loop_.Modify(conn->fd_, EPOLLIN | EPOLLET);
  }
  if (conn->close_after_flush_ && conn->wbuf_.empty()) {
    CloseConnection(conn, "closed by protocol");
    return false;
  }
  return true;
}

void Server::CloseConnection(Connection* conn, const std::string& reason) {
  const int fd = conn->fd_;
  mux_.RemoveSink(conn);
  for (auto& [sid, feed] : conn->poll_subs_) feed->Cancel();
  conn->poll_subs_.clear();
  loop_.Remove(fd);
  ::close(fd);
  conns_.erase(fd);
  if (connections_gauge_) connections_gauge_->Set(conns_.size());
  FlightRecorder::Global().Record("net", "close", reason, fd,
                                  static_cast<int64_t>(conns_.size()));
}

void Server::OnTick() {
  if (draining_) {
    ContinueDrain();
    return;
  }
  mux_.Pump(MonotonicNanos());
  // The pump filled write buffers; push what the sockets will take.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* conn = (it++)->second.get();  // FlushConnection may erase
    if (!conn->wbuf_.empty() || conn->close_after_flush_) {
      FlushConnection(conn);
    }
  }
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  FlightRecorder::Global().Record("net", "drain_begin", "",
                                  static_cast<int64_t>(conns_.size()),
                                  static_cast<int64_t>(mux_.NumEntries()));
  if (listener_ >= 0) {
    loop_.Remove(listener_);
    ::close(listener_);
    listener_ = -1;
  }
  // Run every subscriber feed dry, egress gate bypassed: quota throttling
  // must not hold the drain hostage.
  mux_.FlushAll();
  drain_deadline_ns_ = MonotonicNanos() + config_.drain_deadline_ms * 1'000'000;
  ContinueDrain();
}

void Server::ContinueDrain() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* conn = (it++)->second.get();  // flush may erase
    if (!conn->wbuf_.empty()) FlushConnection(conn);
  }
  size_t pending = 0;
  for (const auto& [fd, conn] : conns_) pending += conn->wbuf_.size();
  if (pending > 0 && MonotonicNanos() < drain_deadline_ns_) {
    return;  // keep ticking; sockets may accept more next round
  }
  if (drain_hook_) {
    Status st = drain_hook_();
    if (!st.ok()) {
      std::fprintf(stderr, "drain hook: %s\n", st.ToString().c_str());
    }
    drain_hook_ = nullptr;
  }
  while (!conns_.empty()) {
    CloseConnection(conns_.begin()->second.get(), "drain");
  }
  FlightRecorder::Global().Record("net", "drain_complete", "",
                                  static_cast<int64_t>(pending), 0);
  loop_.Stop();
}

// --- Ingest runs ------------------------------------------------------------

std::string Server::ParseIngest(bool push, const std::string& rest,
                                const IngestRun& run, IngestFrame* out) {
  const size_t s1 = rest.find(' ');
  if (!push) {
    if (s1 == std::string::npos) return "ERR want: WATERMARK stream ts";
    auto ts = ParseTimestamp(rest.substr(s1 + 1));
    if (!ts.ok()) return "ERR " + ts.status().ToString();
    out->stream = rest.substr(0, s1);
    out->element = StreamElement::Watermark(*ts);
    return "";
  }
  const size_t s2 = s1 == std::string::npos ? s1 : rest.find(' ', s1 + 1);
  if (s2 == std::string::npos) return "ERR want: PUSH stream ts v1,v2,...";
  out->stream = rest.substr(0, s1);
  auto ts = ParseTimestamp(rest.substr(s1 + 1, s2 - s1 - 1));
  if (!ts.ok()) return "ERR " + ts.status().ToString();
  if (run.schema != nullptr && run.stream == out->stream) {
    out->schema = run.schema;
  } else {
    auto found = backend_->StreamSchema(out->stream);
    if (!found.ok()) return "ERR " + found.status().ToString();
    out->schema = std::move(*found);
  }
  auto tuple = ParseRow(rest.substr(s2 + 1), *out->schema);
  if (!tuple.ok()) return "ERR " + tuple.status().ToString();
  out->element = StreamElement::Record(std::move(*tuple), *ts);
  return "";
}

bool Server::GatherIngest(Connection* conn, const std::string& line,
                          IngestRun* run) {
  const size_t space = line.find(' ');
  const std::string_view cmd = std::string_view(line).substr(0, space);
  if (cmd != "PUSH" && cmd != "WATERMARK") return false;
  const std::string rest =
      space == std::string::npos ? "" : line.substr(space + 1);
  IngestFrame frame;
  const std::string error = ParseIngest(cmd == "PUSH", rest, *run, &frame);
  if (!error.empty()) {
    // A malformed frame ends the run; its neighbours are still applied.
    FlushIngest(conn, run);
    conn->wbuf_.Append(EncodeFrame(error));
    return true;
  }
  if (run->frames > 0 && run->stream != frame.stream) FlushIngest(conn, run);
  if (run->frames == 0) run->stream = std::move(frame.stream);
  if (frame.schema != nullptr) run->schema = std::move(frame.schema);
  run->batch.Add(std::move(frame.element));
  ++run->frames;
  return true;
}

void Server::FlushIngest(Connection* conn, IngestRun* run) {
  if (run->frames == 0) return;
  Status st = backend_->PushBatch(run->stream, std::exchange(run->batch, {}));
  const std::string reply = EncodeFrame(st.ok() ? "OK" : "ERR " + st.ToString());
  for (size_t i = 0; i < run->frames; ++i) conn->wbuf_.Append(reply);
  run->frames = 0;
  run->schema.reset();
}

// --- Command dispatch -------------------------------------------------------

std::string Server::DispatchCommand(Connection* conn, const std::string& line) {
  size_t space = line.find(' ');
  std::string cmd = line.substr(0, space);
  std::string rest = space == std::string::npos ? "" : line.substr(space + 1);

  if (cmd == "TENANT") {
    if (rest.empty()) return "ERR want: TENANT name";
    conn->tenant_ = rest;
    return "OK tenant=" + rest;
  }
  if (cmd == "STREAM") {
    size_t s1 = rest.find(' ');
    if (s1 == std::string::npos) return "ERR want: STREAM name cols [key=...]";
    std::string name = rest.substr(0, s1);
    std::string cols = rest.substr(s1 + 1);
    std::string key_spec;
    size_t s2 = cols.find(' ');
    if (s2 != std::string::npos) {
      std::string tail = cols.substr(s2 + 1);
      cols.resize(s2);
      if (tail.rfind("key=", 0) != 0) return "ERR trailing junk '" + tail + "'";
      key_spec = tail.substr(4);
    }
    auto schema = ParseSchema(cols);
    if (!schema.ok()) return "ERR " + schema.status().ToString();
    std::vector<size_t> shard_key;
    if (!key_spec.empty()) {
      for (const std::string& col : SplitCsv(key_spec)) {
        bool found = false;
        for (size_t i = 0; i < (*schema)->num_fields(); ++i) {
          if ((*schema)->field(i).name == col) {
            shard_key.push_back(i);
            found = true;
            break;
          }
        }
        if (!found) return "ERR no column '" + col + "' in schema";
      }
    }
    Status st = backend_->RegisterStream(name, *schema, std::move(shard_key));
    return st.ok() ? "OK" : "ERR " + st.ToString();
  }
  if (cmd == "REGISTER") {
    // Tenant admission rides on top of the service's own caps: charge the
    // tenant for the state its existing queries hold, then reserve a slot.
    size_t tenant_state = 0;
    for (const auto& [qid, owner] : query_tenant_) {
      if (owner != conn->tenant_) continue;
      auto bytes = backend_->QueryStateBytes(qid);
      if (bytes.ok()) tenant_state += *bytes;
    }
    Status admit = quotas_->AdmitQuery(conn->tenant_, tenant_state);
    if (!admit.ok()) {
      FlightRecorder::Global().Record("net", "quota_reject", conn->tenant_,
                                      static_cast<int64_t>(tenant_state), 0);
      return "ERR " + admit.ToString();
    }
    auto id = backend_->RegisterQuery(rest);
    if (!id.ok()) {
      quotas_->ReleaseQuery(conn->tenant_);
      return "ERR " + id.status().ToString();
    }
    query_tenant_[*id] = conn->tenant_;
    return "OK id=" + std::to_string(*id);
  }
  if (cmd == "DROP") {
    auto id = ParseId(rest);
    if (!id.ok()) return "ERR " + id.status().ToString();
    Status st = backend_->DropQuery(*id);
    if (!st.ok()) return "ERR " + st.ToString();
    auto owner = query_tenant_.find(*id);
    if (owner != query_tenant_.end()) {
      quotas_->ReleaseQuery(owner->second);
      query_tenant_.erase(owner);
    }
    return "OK";
  }
  if (cmd == "SUBSCRIBE") {
    auto id = ParseId(rest);
    if (!id.ok()) return "ERR " + id.status().ToString();
    auto feed = backend_->Subscribe(*id);
    if (!feed.ok()) return "ERR " + feed.status().ToString();
    uint64_t sid = conn->next_sub_handle_++;
    conn->poll_subs_[sid] = std::move(*feed);
    return "OK sub=" + std::to_string(sid);
  }
  if (cmd == "LISTEN") {
    auto id = ParseId(rest);
    if (!id.ok()) return "ERR " + id.status().ToString();
    auto feed = backend_->Subscribe(*id);
    if (!feed.ok()) return "ERR " + feed.status().ToString();
    uint64_t sid = conn->next_sub_handle_++;
    mux_.Add(sid, conn->tenant_, std::move(*feed), conn);
    return "OK sub=" + std::to_string(sid) + " push";
  }
  if (cmd == "POLL") {
    auto sid = ParseId(rest);
    if (!sid.ok()) return "ERR " + sid.status().ToString();
    auto it = conn->poll_subs_.find(*sid);
    if (it == conn->poll_subs_.end()) return "ERR no such subscription";
    size_t n = 0;
    StreamBatch batch;
    std::string frame;
    while (it->second->TryPoll(&batch)) {
      const RenderedRecords records(batch);
      for (size_t i = 0; i < records.size(); ++i, ++n) {
        frame.clear();
        AppendFrame(&frame, "DATA", records.slice(i));
        conn->wbuf_.Append(frame);
      }
    }
    std::string tail = "OK n=" + std::to_string(n);
    if (it->second->Closed() && it->second->Depth() == 0) {
      tail += " closed";
      conn->poll_subs_.erase(it);
    }
    return tail;
  }
  if (cmd == "STATS") {
    std::string out =
        "OK operators=" + std::to_string(backend_->NumOperators()) +
        " active_queries=" + std::to_string(backend_->NumActiveQueries()) +
        " connections=" + std::to_string(conns_.size()) +
        " subscribers=" + std::to_string(mux_.NumEntries());
    for (const auto& info : backend_->ListQueries()) {
      out += "\nquery " + std::to_string(info.id) +
             " state=" + QueryStateToString(info.state) +
             " nodes=" + std::to_string(info.nodes_total) +
             " reused=" + std::to_string(info.nodes_reused) +
             " sql=" + info.sql;
    }
    return out;
  }
  return "ERR unknown command '" + cmd + "'";
}

// --- HTTP on the same loop --------------------------------------------------

std::string Server::HandleHttp(Connection* conn, const std::string& request) {
  (void)conn;
  size_t eol = request.find("\r\n");
  std::string line = request.substr(0, eol);
  if (line.rfind("GET ", 0) != 0) {
    return HttpResponse("405 Method Not Allowed", "text/plain", "GET only\n");
  }
  size_t path_end = line.find(' ', 4);
  std::string path = line.substr(
      4, path_end == std::string::npos ? std::string::npos : path_end - 4);
  size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);
  auto it = http_routes_.find(path);
  if (it == http_routes_.end()) {
    std::string known = "not found; known paths:\n";
    for (const auto& [p, r] : http_routes_) known += "  " + p + "\n";
    return HttpResponse("404 Not Found", "text/plain", known);
  }
  return HttpResponse("200 OK", it->second.content_type,
                      it->second.handler());
}

}  // namespace cq::net
