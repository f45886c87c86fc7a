#ifndef RESTUNE_SERVICE_WIRE_SERVER_H_
#define RESTUNE_SERVICE_WIRE_SERVER_H_

#include <cstdint>
#include <thread>  // restune-lint: allow(raw-thread) event-loop host thread

#include "common/status.h"
#include "net/frame.h"
#include "net/wire_loop.h"
#include "service/restune_server.h"

/// The wire face of ResTuneServer (docs/SERVICE.md): one net::WireLoop
/// whose frame handler decodes service/wire.h messages, calls the
/// in-process ResTuneServer, and encodes the response (or a typed
/// kErrorResponse). The loop runs on a dedicated host thread, which also
/// runs every handler, one request at a time; each request is therefore a
/// top-level ThreadPool caller whose advisor loops use the whole pool.
/// ResTuneServer's own mutex still serializes what must be serialized, so
/// every server-side invariant (idempotent Recommend/ReportEvaluation/
/// FinishSession, byte-identical checkpoints) holds unchanged over the
/// wire.
///
/// Lifecycle: Start() binds + spawns the loop thread; Stop() (idempotent,
/// also run by the destructor) requests loop exit and joins. Start/Stop
/// must be called from one thread; the checkpoint-restart test cycle is
/// Stop() → LoadCheckpointFile on a fresh ResTuneServer → new WireServer.

namespace restune {

struct WireServerOptions {
  net::WireLoopOptions loop;
};

class WireServer {
 public:
  /// `server` must outlive this object.
  explicit WireServer(ResTuneServer* server, WireServerOptions options = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread.
  Status Start();
  /// Requests loop exit, joins the thread, closes every connection.
  void Stop();

  /// Valid after Start(); loopback clients connect here.
  uint16_t port() const { return loop_.port(); }

  /// Decodes one request frame and produces the encoded response frame.
  /// Public for tests that exercise the handler without sockets; normal
  /// traffic reaches it through the loop.
  net::HandlerResult HandleFrame(uint64_t client_id, const net::Frame& frame);

 private:
  ResTuneServer* server_;
  net::WireLoop loop_;
  // The one place outside src/common where a raw thread is held: the
  // poll() loop needs a dedicated blocking thread, which ThreadPool
  // (cooperative ParallelFor only) cannot provide.
  std::thread loop_thread_;  // restune-lint: allow(raw-thread)
  bool started_ = false;
};

}  // namespace restune

#endif  // RESTUNE_SERVICE_WIRE_SERVER_H_
