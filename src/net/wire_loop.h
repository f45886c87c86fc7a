#ifndef RESTUNE_NET_WIRE_LOOP_H_
#define RESTUNE_NET_WIRE_LOOP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

/// Non-blocking poll() event loop for the wire-facing tuning service
/// (docs/SERVICE.md, "Server architecture").
///
/// Threading model: one thread (the caller of `RunUntilStopped` /
/// `PollOnce`) owns every socket, buffer, and session object — no locks.
/// That thread also runs the frame handler, session by session, each
/// session's frames in arrival order, so a handler is a top-level
/// `ThreadPool` caller and its data-parallel loops get the whole pool.
/// `RequestStop` is the one cross-thread entry point (an atomic flag).
///
/// Admission control and backpressure:
///   * at most `max_connections` live sessions; excess accepts are closed
///     immediately (restune_net_connections_rejected_total);
///   * at most `max_in_flight_per_connection` decoded frames are handed
///     to the handler per dispatch batch, and a connection with a full
///     batch is not polled for reads (restune_net_read_paused_total);
///   * responses queue per connection up to `max_write_queue_bytes`; a
///     client that cannot drain its responses is disconnected
///     (restune_net_slow_client_disconnects_total).

namespace restune {
namespace net {

struct WireLoopOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks a free port; read it back with WireLoop::port().
  uint16_t port = 0;
  int backlog = 128;
  /// Admission cap on concurrently connected clients.
  size_t max_connections = 256;
  /// Decoded-but-unprocessed frame cap per connection (pipelining depth).
  size_t max_in_flight_per_connection = 8;
  /// Queued response bytes per connection before a slow-client disconnect.
  size_t max_write_queue_bytes = 4u << 20;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// poll() timeout per tick of RunUntilStopped — also the stop latency.
  int poll_interval_ms = 20;
};

/// What the frame handler tells the loop to do with one request frame.
struct HandlerResult {
  /// Encoded response frame(s); empty sends nothing.
  std::string response;
  /// Close the connection after the response has been flushed.
  bool close = false;
};

using FrameHandler =
    std::function<HandlerResult(uint64_t client_id, const Frame& frame)>;

/// One accepted connection: socket, incremental decoder, decoded-frame
/// inbox, and the outbound write queue. Owned and driven by the loop
/// thread.
class ClientSession {
 public:
  ClientSession(Socket socket, uint64_t id, size_t max_payload)
      : socket_(std::move(socket)), id_(id), decoder_(max_payload) {}

  uint64_t id() const { return id_; }
  int fd() const { return socket_.fd(); }

 private:
  friend class WireLoop;

  Socket socket_;
  uint64_t id_;
  FrameDecoder decoder_;
  /// Decoded frames awaiting dispatch (≤ max_in_flight_per_connection).
  std::deque<Frame> inbox_;
  /// Outbound bytes; front element partially sent up to write_offset_.
  std::deque<std::string> write_queue_;
  size_t write_offset_ = 0;
  size_t queued_bytes_ = 0;
  /// Peer sent EOF (or a read error): no more reads, flush then close.
  bool draining_ = false;
  /// Close once the write queue is empty (handler said so, or draining).
  bool close_after_flush_ = false;
  /// Remove this tick, dropping any queued writes.
  bool dead_ = false;
};

/// Accept loop + admission control: owns the listening socket, assigns
/// monotonically increasing session ids, and closes connections beyond
/// the admission cap.
class ClientRegistrar {
 public:
  Status Open(const std::string& address, uint16_t port, int backlog);
  uint16_t port() const { return port_; }
  int fd() const { return listener_.fd(); }
  bool listening() const { return listener_.valid(); }
  void Close() { listener_.Close(); }

  /// Accepts every pending connection; the first `slots` become sessions,
  /// the rest are closed on the spot and counted as rejected.
  std::vector<std::unique_ptr<ClientSession>> AcceptPending(
      size_t slots, size_t max_payload);

 private:
  Socket listener_;
  uint16_t port_ = 0;
  uint64_t next_id_ = 1;
};

/// The event loop. Construct with a handler, Open(), then either call
/// RunUntilStopped() from a dedicated thread or single-step with
/// PollOnce() (tests do the latter).
class WireLoop {
 public:
  explicit WireLoop(FrameHandler handler, WireLoopOptions options = {});
  ~WireLoop();

  WireLoop(const WireLoop&) = delete;
  WireLoop& operator=(const WireLoop&) = delete;

  /// Binds and listens; port() is valid afterwards.
  Status Open();
  uint16_t port() const { return registrar_.port(); }
  size_t active_connections() const { return sessions_.size(); }

  /// One tick: poll (≤ timeout_ms), accept, read, dispatch, write, reap.
  Status PollOnce(int timeout_ms);

  /// Ticks until RequestStop(), then closes every connection and the
  /// listener. Returns the first tick error, if any ticked fatally.
  Status RunUntilStopped();

  /// Thread-safe; the loop exits within one poll interval.
  void RequestStop() { stop_.store(true); }

 private:
  void ReadFromSession(ClientSession* session);
  /// Decode + handle passes until every inbox is empty.
  void DispatchPending();
  void FlushSession(ClientSession* session);
  void ReapDeadSessions();
  void CloseAll();

  FrameHandler handler_;
  WireLoopOptions options_;
  ClientRegistrar registrar_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::atomic<bool> stop_{false};
};

}  // namespace net
}  // namespace restune

#endif  // RESTUNE_NET_WIRE_LOOP_H_
