#include "net/wire_loop.h"

#include <poll.h>

#include <utility>

#include "obs/metrics.h"

namespace restune {
namespace net {

namespace {

/// Stable metric handles (docs/OBSERVABILITY.md, "Wire service").
struct NetMetrics {
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Counter* frames_rx;
  obs::Counter* frames_tx;
  obs::Counter* bytes_rx;
  obs::Counter* bytes_tx;
  obs::Counter* decode_errors;
  obs::Counter* read_paused;
  obs::Counter* slow_disconnects;
  obs::Gauge* active;
};

NetMetrics& Metrics() {
  static NetMetrics m = [] {
    auto* registry = obs::MetricsRegistry::Global();
    NetMetrics handles;
    handles.accepted =
        registry->GetCounter("restune_net_connections_accepted_total");
    handles.rejected =
        registry->GetCounter("restune_net_connections_rejected_total");
    handles.frames_rx = registry->GetCounter("restune_net_frames_rx_total");
    handles.frames_tx = registry->GetCounter("restune_net_frames_tx_total");
    handles.bytes_rx = registry->GetCounter("restune_net_bytes_rx_total");
    handles.bytes_tx = registry->GetCounter("restune_net_bytes_tx_total");
    handles.decode_errors =
        registry->GetCounter("restune_net_frame_decode_errors_total");
    handles.read_paused = registry->GetCounter("restune_net_read_paused_total");
    handles.slow_disconnects =
        registry->GetCounter("restune_net_slow_client_disconnects_total");
    handles.active = registry->GetGauge("restune_net_active_connections");
    return handles;
  }();
  return m;
}

}  // namespace

Status ClientRegistrar::Open(const std::string& address, uint16_t port,
                             int backlog) {
  RESTUNE_ASSIGN_OR_RETURN(listener_, ListenTcp(address, port, backlog));
  RESTUNE_ASSIGN_OR_RETURN(port_, LocalPort(listener_));
  return Status::OK();
}

std::vector<std::unique_ptr<ClientSession>> ClientRegistrar::AcceptPending(
    size_t slots, size_t max_payload) {
  std::vector<std::unique_ptr<ClientSession>> admitted;
  for (;;) {
    bool would_block = false;
    Result<Socket> conn = AcceptConnection(listener_, &would_block);
    if (!conn.ok()) break;  // transient accept failure: retry next tick
    if (would_block) break;
    if (admitted.size() >= slots) {
      // Admission control: over capacity, close on the spot. The client
      // sees an orderly EOF instead of an ever-growing accept queue.
      Metrics().rejected->Add(1);
      continue;
    }
    Metrics().accepted->Add(1);
    admitted.push_back(std::make_unique<ClientSession>(
        std::move(conn).value(), next_id_++, max_payload));
  }
  return admitted;
}

WireLoop::WireLoop(FrameHandler handler, WireLoopOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.max_in_flight_per_connection == 0) {
    options_.max_in_flight_per_connection = 1;
  }
}

WireLoop::~WireLoop() { CloseAll(); }

Status WireLoop::Open() {
  return registrar_.Open(options_.bind_address, options_.port,
                         options_.backlog);
}

void WireLoop::ReadFromSession(ClientSession* session) {
  char buf[65536];
  for (;;) {
    size_t got = 0;
    bool would_block = false;
    Status status =
        ReadSome(session->socket_, buf, sizeof(buf), &got, &would_block);
    if (!status.ok()) {
      session->draining_ = true;
      session->close_after_flush_ = true;
      return;
    }
    if (would_block) return;
    if (got == 0) {
      // Orderly EOF: keep flushing what we owe, then close.
      session->draining_ = true;
      session->close_after_flush_ = true;
      return;
    }
    Metrics().bytes_rx->Add(static_cast<int64_t>(got));
    session->decoder_.Feed(buf, got);
  }
}

void WireLoop::DispatchPending() {
  const size_t cap = options_.max_in_flight_per_connection;
  for (;;) {
    bool any = false;
    for (auto& session : sessions_) {
      if (session->dead_) continue;
      // Decode up to the in-flight cap. Bytes already buffered past the
      // cap wait for the next pass — that is the read-side backpressure,
      // and we count it.
      while (session->inbox_.size() < cap) {
        Frame frame;
        Result<bool> next = session->decoder_.Next(&frame);
        if (!next.ok()) {
          Metrics().decode_errors->Add(1);
          session->dead_ = true;  // framing lost; nothing sane to send
          break;
        }
        if (!next.value()) break;
        Metrics().frames_rx->Add(1);
        session->inbox_.push_back(std::move(frame));
      }
      if (session->dead_) continue;
      if (session->inbox_.size() >= cap &&
          session->decoder_.buffered_bytes() >= kFrameHeaderBytes) {
        Metrics().read_paused->Add(1);
      }
      if (session->inbox_.empty()) continue;
      any = true;
      // Handlers run here, on the loop thread, in arrival order; each one
      // is a top-level pool caller, so its loops get the whole pool.
      while (!session->inbox_.empty() && !session->close_after_flush_) {
        Frame frame = std::move(session->inbox_.front());
        session->inbox_.pop_front();
        HandlerResult result = handler_(session->id(), frame);
        if (!result.response.empty()) {
          session->queued_bytes_ += result.response.size();
          session->write_queue_.push_back(std::move(result.response));
        }
        if (result.close) session->close_after_flush_ = true;
      }
      session->inbox_.clear();
    }
    if (!any) return;
  }
}

void WireLoop::FlushSession(ClientSession* session) {
  if (session->queued_bytes_ > options_.max_write_queue_bytes) {
    // Slow client: its responses are accumulating faster than it reads
    // them. Cut it loose rather than buffer without bound.
    Metrics().slow_disconnects->Add(1);
    session->dead_ = true;
    return;
  }
  while (!session->write_queue_.empty()) {
    const std::string& chunk = session->write_queue_.front();
    size_t written = 0;
    bool would_block = false;
    Status status = WriteSome(session->socket_, chunk.data() + session->write_offset_,
                              chunk.size() - session->write_offset_, &written,
                              &would_block);
    if (!status.ok()) {
      session->dead_ = true;
      return;
    }
    Metrics().bytes_tx->Add(static_cast<int64_t>(written));
    session->write_offset_ += written;
    session->queued_bytes_ -= written;
    if (session->write_offset_ == chunk.size()) {
      Metrics().frames_tx->Add(1);
      session->write_queue_.pop_front();
      session->write_offset_ = 0;
    }
    if (would_block) return;
  }
  if (session->close_after_flush_) session->dead_ = true;
}

void WireLoop::ReapDeadSessions() {
  size_t kept = 0;
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i]->dead_) continue;
    if (kept != i) sessions_[kept] = std::move(sessions_[i]);
    ++kept;
  }
  sessions_.resize(kept);
  Metrics().active->Set(static_cast<double>(sessions_.size()));
}

Status WireLoop::PollOnce(int timeout_ms) {
  const bool accepting = sessions_.size() < options_.max_connections;
  std::vector<pollfd> fds;
  fds.reserve(sessions_.size() + 1);
  // Always poll the listener: even over the admission cap we must accept
  // (and immediately close) excess connections to reject them promptly.
  fds.push_back(pollfd{registrar_.fd(), POLLIN, 0});
  for (auto& session : sessions_) {
    short events = 0;
    const bool inbox_open =
        session->inbox_.size() < options_.max_in_flight_per_connection;
    if (!session->draining_ && inbox_open) events |= POLLIN;
    if (!session->write_queue_.empty()) events |= POLLOUT;
    fds.push_back(pollfd{session->fd(), events, 0});
  }
  // Work may already be buffered in decoders; don't sleep on it.
  bool buffered = false;
  for (auto& session : sessions_) {
    if (session->decoder_.buffered_bytes() >= kFrameHeaderBytes ||
        !session->inbox_.empty()) {
      buffered = true;
    }
  }
  const int timeout = buffered ? 0 : timeout_ms;
  const int ready = RetryEintr(
      [&] { return ::poll(fds.data(), fds.size(), timeout); });
  if (ready < 0) return Status::IoError("poll failed");

  if (fds[0].revents & POLLIN) {
    const size_t slots =
        accepting ? options_.max_connections - sessions_.size() : 0;
    auto admitted =
        registrar_.AcceptPending(slots, options_.max_frame_payload);
    for (auto& session : admitted) sessions_.push_back(std::move(session));
    Metrics().active->Set(static_cast<double>(sessions_.size()));
  }

  for (size_t i = 0; i < sessions_.size() && i + 1 < fds.size(); ++i) {
    ClientSession* session = sessions_[i].get();
    const short revents = fds[i + 1].revents;
    if (revents & (POLLERR | POLLNVAL)) {
      session->dead_ = true;
      continue;
    }
    if (revents & (POLLIN | POLLHUP)) ReadFromSession(session);
  }

  DispatchPending();

  for (auto& session : sessions_) {
    if (session->dead_) continue;
    if (!session->write_queue_.empty() || session->close_after_flush_) {
      FlushSession(session.get());
    }
  }

  ReapDeadSessions();
  return Status::OK();
}

Status WireLoop::RunUntilStopped() {
  Status status = Status::OK();
  while (!stop_.load()) {
    status = PollOnce(options_.poll_interval_ms);
    if (!status.ok()) break;
  }
  CloseAll();
  return status;
}

void WireLoop::CloseAll() {
  sessions_.clear();
  if (registrar_.listening()) registrar_.Close();
  Metrics().active->Set(0.0);
}

}  // namespace net
}  // namespace restune
