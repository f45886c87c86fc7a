#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/restune_client.h"
#include "service/restune_server.h"
#include "service/tuning_client.h"
#include "service/wire.h"
#include "service/wire_server.h"
#include "tuner/harness.h"

namespace restune {
namespace {

/// Wire-service integration tests: every request here crosses a real
/// loopback TCP connection through WireServer's poll loop, so these cover
/// framing, dispatch, admission control, and backpressure end to end.
class WireServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kWarning); }

  /// A self-contained submission that skips the simulator: these tests
  /// exercise the transport and server semantics, not the tuning quality.
  static TargetTaskSubmission MakeSubmission(const std::string& name) {
    TargetTaskSubmission sub;
    sub.task_name = name;
    sub.meta_feature = {0.3, 0.7};
    sub.knob_dim = 3;
    sub.default_theta = {0.5, 0.5, 0.5};
    sub.default_observation.theta = sub.default_theta;
    sub.default_observation.res = 10.0;
    sub.default_observation.tps = 100.0;
    sub.default_observation.lat = 5.0;
    sub.resource = "cpu";
    return sub;
  }

  /// A clean, SLA-feasible measurement of `theta` (tps above / lat below
  /// the submission defaults that define the SLA).
  static EvaluationReport FeasibleReport(const KnobRecommendation& rec,
                                         double res) {
    EvaluationReport report;
    report.session_id = rec.session_id;
    report.iteration = rec.iteration;
    report.observation.theta = rec.theta;
    report.observation.res = res;
    report.observation.tps = 101.0;
    report.observation.lat = 4.9;
    return report;
  }

  /// Cheap advisor settings: the fleet test multiplies every suggestion
  /// cost by ~500.
  static ServerOptions FastServerOptions() {
    ServerOptions options;
    options.advisor.acq_optimizer.num_candidates = 32;
    options.advisor.acq_optimizer.num_refine = 1;
    options.advisor.acq_optimizer.refine_passes = 2;
    options.archive_finished_sessions = false;
    return options;
  }

  static bool BitEq(const Vector& a, const Vector& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      uint64_t x = 0;
      uint64_t y = 0;
      std::memcpy(&x, &a[i], sizeof(x));
      std::memcpy(&y, &b[i], sizeof(y));
      if (x != y) return false;
    }
    return true;
  }

  /// Value of a counter/gauge line in Prometheus text ("name value").
  static double MetricValue(const std::string& text, const std::string& name) {
    size_t pos = 0;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      if (line.rfind(name + " ", 0) == 0) {
        return std::stod(line.substr(name.size() + 1));
      }
      pos = eol + 1;
    }
    return -1.0;
  }
};

TEST_F(WireServiceTest, LoopbackTuningLoopOverTheWire) {
  ResTuneServer server(FastServerOptions());
  WireServer wire(&server);
  ASSERT_TRUE(wire.Start().ok());

  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto session = client->StartSession(MakeSubmission("wire-basic"));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(server.active_sessions(), 1u);

  for (int iter = 1; iter <= 5; ++iter) {
    const auto rec = client->Recommend(*session);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->session_id, *session);
    EXPECT_EQ(rec->iteration, iter);
    ASSERT_EQ(rec->theta.size(), 3u);
    ASSERT_TRUE(client->ReportEvaluation(FeasibleReport(*rec, 9.0)).ok());
  }

  const auto summary = client->FinishSession(*session);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->iterations, 5);
  EXPECT_EQ(server.active_sessions(), 0u);

  const auto metrics = client->MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(MetricValue(*metrics, "restune_net_frames_rx_total"), 7.0);
  EXPECT_GE(MetricValue(*metrics, "restune_net_connections_accepted_total"),
            1.0);
}

/// A served request is a top-level pool caller: the handler runs on the
/// loop thread, not inside a pool worker, so the advisor's sweep (512
/// candidates, above the pool's range grain) fans out exactly as it does
/// when the same call is made directly. The θ sequence is bit-identical.
TEST_F(WireServiceTest, ServedRecommendUsesThePoolLikeADirectCall) {
  if (ThreadPool::Shared()->num_threads() < 2) {
    GTEST_SKIP() << "needs a shared pool of at least 2 threads";
  }
  obs::Counter* loops =
      obs::MetricsRegistry::Global()->GetCounter("restune_pool_loops_total");
  ServerOptions options;
  options.archive_finished_sessions = false;
  constexpr int kIters = 4;

  // Direct calls from this thread: the reference θ sequence and the
  // fan-out loop count of each Recommend.
  std::vector<Vector> direct_thetas;
  std::vector<int64_t> direct_loops;
  {
    ResTuneServer server(options);
    const auto session = server.StartSession(MakeSubmission("wire-pool"));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (int iter = 1; iter <= kIters; ++iter) {
      const int64_t before = loops->Value();
      const auto rec = server.Recommend(*session);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      direct_loops.push_back(loops->Value() - before);
      direct_thetas.push_back(rec->theta);
      ASSERT_TRUE(
          server.ReportEvaluation(FeasibleReport(*rec, 10.0 - 0.1 * iter))
              .ok());
    }
  }

  ResTuneServer server(options);
  WireServer wire(&server);
  ASSERT_TRUE(wire.Start().ok());
  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto session = client->StartSession(MakeSubmission("wire-pool"));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int iter = 1; iter <= kIters; ++iter) {
    const int64_t before = loops->Value();
    const auto rec = client->Recommend(*session);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    const int64_t served_loops = loops->Value() - before;
    EXPECT_GT(served_loops, 0) << "iteration " << iter;
    EXPECT_EQ(served_loops, direct_loops[iter - 1]) << "iteration " << iter;
    EXPECT_TRUE(BitEq(rec->theta, direct_thetas[iter - 1]))
        << "iteration " << iter;
    ASSERT_TRUE(
        client->ReportEvaluation(FeasibleReport(*rec, 10.0 - 0.1 * iter))
            .ok());
  }
}

TEST_F(WireServiceTest, ServerSemanticsAreIdempotentOverTheWire) {
  ResTuneServer server(FastServerOptions());
  WireServer wire(&server);
  ASSERT_TRUE(wire.Start().ok());

  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok());
  const auto session = client->StartSession(MakeSubmission("wire-idem"));
  ASSERT_TRUE(session.ok());

  // A retried Recommend returns the SAME outstanding recommendation,
  // bit-identical over the wire.
  const auto rec1 = client->Recommend(*session);
  const auto rec2 = client->Recommend(*session);
  ASSERT_TRUE(rec1.ok());
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec1->iteration, rec2->iteration);
  EXPECT_TRUE(BitEq(rec1->theta, rec2->theta));

  // RecommendBatch tops up to the width and re-asking is idempotent.
  const auto batch1 = client->RecommendBatch(*session, 3);
  const auto batch2 = client->RecommendBatch(*session, 3);
  ASSERT_TRUE(batch1.ok());
  ASSERT_TRUE(batch2.ok());
  ASSERT_EQ(batch1->size(), 3u);
  ASSERT_EQ(batch2->size(), 3u);
  EXPECT_EQ((*batch1)[0].iteration, rec1->iteration);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitEq((*batch1)[i].theta, (*batch2)[i].theta));
  }

  // Duplicate reports are no-ops; the duplicate does not advance state.
  const EvaluationReport report = FeasibleReport(*rec1, 9.5);
  ASSERT_TRUE(client->ReportEvaluation(report).ok());
  ASSERT_TRUE(client->ReportEvaluation(report).ok());
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(
        client->ReportEvaluation(FeasibleReport((*batch1)[i], 9.5)).ok());
  }

  // Finishing twice returns the cached summary.
  const auto summary1 = client->FinishSession(*session);
  const auto summary2 = client->FinishSession(*session);
  ASSERT_TRUE(summary1.ok());
  ASSERT_TRUE(summary2.ok());
  EXPECT_EQ(summary1->iterations, 3);
  EXPECT_EQ(summary2->iterations, 3);
  EXPECT_TRUE(BitEq(summary1->best_theta, summary2->best_theta));
}

TEST_F(WireServiceTest, TypedErrorsTravelTheWire) {
  ResTuneServer server(FastServerOptions());
  WireServer wire(&server);
  ASSERT_TRUE(wire.Start().ok());

  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok());

  // Unknown session: the server-side kNotFound arrives as the same typed
  // Status a local call would have returned.
  EXPECT_EQ(client->Recommend(999).status().code(), StatusCode::kNotFound);

  // Malformed submission: kInvalidArgument, and the connection survives
  // (the next request on the same socket succeeds).
  TargetTaskSubmission bad = MakeSubmission("wire-bad");
  bad.default_theta = {0.5};  // wrong dimension
  EXPECT_EQ(client->StartSession(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client->StartSession(MakeSubmission("wire-good")).ok());
}

TEST_F(WireServiceTest, KillAndRestartResumesMidSessionFromCheckpoint) {
  const std::string path = testing::TempDir() + "/wire_restart.ckpt";
  ServerOptions options = FastServerOptions();
  options.checkpoint_path = path;
  options.checkpoint_period = 1;  // checkpoint on every mutation

  uint64_t session_id = 0;
  int outstanding_iteration = 0;
  Vector outstanding_theta;
  EvaluationReport replayed_report;
  {
    ResTuneServer server(options);
    WireServer wire(&server);
    ASSERT_TRUE(wire.Start().ok());
    auto client = TuningClient::Connect("127.0.0.1", wire.port());
    ASSERT_TRUE(client.ok());
    const auto session = client->StartSession(MakeSubmission("wire-restart"));
    ASSERT_TRUE(session.ok());
    session_id = *session;
    for (int i = 0; i < 3; ++i) {
      const auto rec = client->Recommend(session_id);
      ASSERT_TRUE(rec.ok());
      replayed_report = FeasibleReport(*rec, 9.0);
      ASSERT_TRUE(client->ReportEvaluation(replayed_report).ok());
    }
    // One recommendation still in flight when the server dies.
    const auto rec = client->Recommend(session_id);
    ASSERT_TRUE(rec.ok());
    outstanding_iteration = rec->iteration;
    outstanding_theta = rec->theta;
    wire.Stop();
  }

  // Fresh process: restore from the checkpoint, serve on a new port.
  ResTuneServer revived(options);
  ASSERT_TRUE(revived.LoadCheckpointFile(path).ok());
  WireServer wire(&revived);
  ASSERT_TRUE(wire.Start().ok());
  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok());

  // The client's retry of the in-flight Recommend sees the SAME iteration
  // and bit-identical theta — the replayed launch, not a fresh suggestion.
  const auto rec = client->Recommend(session_id);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->iteration, outstanding_iteration);
  EXPECT_TRUE(BitEq(rec->theta, outstanding_theta));

  // A duplicate of an already-processed report is still a no-op.
  ASSERT_TRUE(client->ReportEvaluation(replayed_report).ok());

  ASSERT_TRUE(client->ReportEvaluation(FeasibleReport(*rec, 8.5)).ok());
  const auto summary = client->FinishSession(session_id);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->iterations, 4);
}

TEST_F(WireServiceTest, EventSessionLadderDrivesFrozenProbesOverTheWire) {
  ServerOptions options = FastServerOptions();
  options.use_event_sessions = true;
  ResTuneServer server(options);
  WireServer wire(&server);
  ASSERT_TRUE(wire.Start().ok());

  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok());
  const TargetTaskSubmission sub = MakeSubmission("wire-event");
  const auto session = client->StartSession(sub);
  ASSERT_TRUE(session.ok());

  // Four consecutive crash reports walk the ladder healthy → constrained
  // (after 2) → frozen (after 4).
  for (int i = 0; i < 4; ++i) {
    const auto rec = client->Recommend(*session);
    ASSERT_TRUE(rec.ok());
    EvaluationReport report;
    report.session_id = *session;
    report.iteration = rec->iteration;
    report.fault = FaultKind::kCrash;
    ASSERT_TRUE(client->ReportEvaluation(report).ok());
  }

  // Frozen: every probe pins the last known-safe configuration (still the
  // submitted default — nothing feasible was seen), bit-identical.
  for (int i = 0; i < 3; ++i) {
    const auto probe = client->Recommend(*session);
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(BitEq(probe->theta, sub.default_theta));
    ASSERT_TRUE(client->ReportEvaluation(FeasibleReport(*probe, 9.0)).ok());
  }

  // Three feasible probes unfreeze into constrained: suggestions come from
  // the advisor again but clamped into the trust region around the safe
  // config.
  const auto rec = client->Recommend(*session);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->theta.size(), 3u);
  for (double v : rec->theta) {
    EXPECT_LE(std::abs(v - 0.5), options.safety.trust_radius + 1e-12);
  }
  ASSERT_TRUE(client->ReportEvaluation(FeasibleReport(*rec, 8.8)).ok());
  const auto summary = client->FinishSession(*session);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->iterations, 8);
}

TEST_F(WireServiceTest, AdmissionControlRejectsConnectionsOverTheCap) {
  ResTuneServer server(FastServerOptions());
  WireServerOptions options;
  options.loop.max_connections = 2;
  WireServer wire(&server, options);
  ASSERT_TRUE(wire.Start().ok());

  auto c1_result = TuningClient::Connect("127.0.0.1", wire.port());
  auto c2 = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(c1_result.ok());
  ASSERT_TRUE(c2.ok());
  std::optional<TuningClient> c1(std::move(c1_result).value());
  ASSERT_TRUE(c1->MetricsText().ok());
  ASSERT_TRUE(c2->MetricsText().ok());

  // Third connection: TCP-accepted then immediately closed — the client
  // sees an orderly EOF on its first request, not a hung connect.
  auto c3 = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c3->MetricsText().status().code(), StatusCode::kIoError);
  const double rejected =
      MetricValue(server.MetricsText(),
                  "restune_net_connections_rejected_total");
  EXPECT_GE(rejected, 1.0);

  // Freeing a slot re-admits new clients. The reap happens one poll tick
  // after the EOF, so retry (bounded, no sleeps — each failed attempt is
  // itself a poll-loop round trip).
  c1.reset();  // drop the connection
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    auto c4 = TuningClient::Connect("127.0.0.1", wire.port());
    ASSERT_TRUE(c4.ok());
    admitted = c4->MetricsText().ok();
  }
  EXPECT_TRUE(admitted);
}

TEST_F(WireServiceTest, SlowClientsAreDisconnectedNotBufferedForever) {
  ResTuneServer server(FastServerOptions());
  WireServerOptions options;
  // A bound far below one metrics dump: staging the response immediately
  // trips the slow-client cut-off.
  options.loop.max_write_queue_bytes = 128;
  WireServer wire(&server, options);
  ASSERT_TRUE(wire.Start().ok());

  auto client = TuningClient::Connect("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->MetricsText().status().code(), StatusCode::kIoError);
  const double cut =
      MetricValue(server.MetricsText(),
                  "restune_net_slow_client_disconnects_total");
  EXPECT_GE(cut, 1.0);
}

TEST_F(WireServiceTest, PipelinedBurstRespectsInFlightCapAndOrder) {
  ResTuneServer server(FastServerOptions());
  WireServerOptions options;
  options.loop.max_in_flight_per_connection = 2;
  WireServer wire(&server, options);
  ASSERT_TRUE(wire.Start().ok());

  // Raw pipelining: 64 metrics requests in ONE write, far above the
  // in-flight cap. The loop must answer all of them, in order, pausing
  // reads (observable in the counter) instead of dropping frames.
  auto socket = net::ConnectTcp("127.0.0.1", wire.port());
  ASSERT_TRUE(socket.ok());
  std::string burst;
  const int kBurst = 64;
  for (int i = 1; i <= kBurst; ++i) {
    burst += net::EncodeFrame(
        static_cast<uint8_t>(WireMessageType::kMetricsRequest),
        EncodeMetricsRequest(static_cast<uint64_t>(i)));
  }
  ASSERT_TRUE(net::WriteAll(*socket, burst.data(), burst.size()).ok());

  net::FrameDecoder decoder;
  int received = 0;
  while (received < kBurst) {
    net::Frame frame;
    const auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (next.value()) {
      ++received;
      EXPECT_EQ(frame.type,
                static_cast<uint8_t>(WireMessageType::kMetricsResponse));
      uint64_t request_id = 0;
      ASSERT_TRUE(PeekRequestId(frame.payload, &request_id).ok());
      EXPECT_EQ(request_id, static_cast<uint64_t>(received));
      continue;
    }
    char buf[65536];
    size_t got = 0;
    bool would_block = false;
    ASSERT_TRUE(
        net::ReadSome(*socket, buf, sizeof(buf), &got, &would_block).ok());
    ASSERT_FALSE(got == 0 && !would_block) << "server closed mid-burst";
    decoder.Feed(buf, got);
  }
  const double paused = MetricValue(server.MetricsText(),
                                    "restune_net_read_paused_total");
  EXPECT_GE(paused, 1.0);
}

/// The acceptance test of the wire subsystem: 100 concurrent client
/// sessions, each a full tuning loop over its own TCP connection against
/// ONE wire server, with zero lost or duplicated evaluations.
TEST_F(WireServiceTest, FleetOfHundredConcurrentSessions) {
  ResTuneServer server(FastServerOptions());
  WireServerOptions options;
  options.loop.max_connections = 128;
  WireServer wire(&server, options);
  ASSERT_TRUE(wire.Start().ok());

  constexpr size_t kFleet = 100;
  constexpr int kIters = 4;
  ThreadPool drivers(16);

  // Phase 1: every tenant connects and opens its session — all 100
  // connections and sessions are live at once.
  std::vector<std::optional<TuningClient>> clients(kFleet);
  std::vector<uint64_t> session_ids(kFleet, 0);
  std::vector<char> started(kFleet, 0);  // not vector<bool>: parallel slot writes
  drivers.ParallelFor(kFleet, [&](size_t i) {
    auto client = TuningClient::Connect("127.0.0.1", wire.port());
    if (!client.ok()) return;
    const auto session = client->StartSession(
        MakeSubmission("tenant-" + std::to_string(i)));
    if (!session.ok()) return;
    clients[i] = std::move(client).value();
    session_ids[i] = *session;
    started[i] = true;
  });
  for (size_t i = 0; i < kFleet; ++i) {
    ASSERT_TRUE(started[i]) << "tenant " << i << " failed to start";
  }
  EXPECT_EQ(server.active_sessions(), kFleet);

  // Phase 2: full tuning loops, concurrently.
  std::vector<char> looped(kFleet, 0);
  drivers.ParallelFor(kFleet, [&](size_t i) {
    TuningClient& client = *clients[i];
    for (int iter = 1; iter <= kIters; ++iter) {
      const auto rec = client.Recommend(session_ids[i]);
      if (!rec.ok() || rec->iteration != iter) return;
      if (!client.ReportEvaluation(FeasibleReport(*rec, 10.0 - 0.1 * iter))
               .ok()) {
        return;
      }
    }
    looped[i] = true;
  });
  for (size_t i = 0; i < kFleet; ++i) {
    ASSERT_TRUE(looped[i]) << "tenant " << i << " lost an evaluation";
  }

  // Phase 3: finish everywhere; every summary must count exactly kIters
  // evaluations — none lost, none double-counted.
  std::vector<int> iterations(kFleet, -1);
  drivers.ParallelFor(kFleet, [&](size_t i) {
    const auto summary = clients[i]->FinishSession(session_ids[i]);
    if (summary.ok()) iterations[i] = summary->iterations;
  });
  for (size_t i = 0; i < kFleet; ++i) {
    EXPECT_EQ(iterations[i], kIters) << "tenant " << i;
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.finished_sessions(), kFleet);

  const std::string metrics = server.MetricsText();
  EXPECT_GE(MetricValue(metrics, "restune_net_connections_accepted_total"),
            static_cast<double>(kFleet));
  // 1 start + kIters * 2 + 1 finish round trips per tenant.
  EXPECT_GE(MetricValue(metrics, "restune_net_frames_rx_total"),
            static_cast<double>(kFleet * (2 + 2 * kIters)));
}

}  // namespace
}  // namespace restune
