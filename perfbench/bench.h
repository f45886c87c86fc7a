#ifndef RESTUNE_PERFBENCH_BENCH_H_
#define RESTUNE_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "meta/data_repository.h"
#include "net/frame.h"
#include "probe.h"
#include "service/restune_server.h"
#include "stats.h"
#include "tuner/harness.h"

/// The repository benchmark (README.md in this directory): one process
/// hosts a ResTuneServer behind its wire face and a load generator with one
/// client thread and one connection. Tenants are sessions multiplexed over
/// that connection.

namespace perfbench {

using restune::DataRepository;
using restune::DbInstanceSimulator;
using restune::KnobRecommendation;
using restune::KnobSpace;
using restune::ResTuneServer;
using restune::ServerOptions;
using restune::SessionSummary;
using restune::TargetTaskSubmission;
using restune::Vector;
using Clock = std::chrono::steady_clock;

/// One named workload. Everything the generator does is fixed here or
/// derived from the seed.
struct WorkloadSpec {
  std::string name;
  /// 14-knob paper sessions (CpuKnobSpace, default advisor) instead of
  /// 3-knob fleet tenants (CaseStudyKnobSpace, cheap advisor).
  bool paper_sessions = false;
  size_t tenants = 0;         // concurrent sessions
  /// Generator connections, one client thread each. One keeps the loop's
  /// tick from pairing requests of different connections, which made a
  /// request's latency depend on which others it happened to meet.
  size_t connections = 1;
  int rounds_per_session = 8;
  /// Every `retry_period`-th round re-sends Recommend and ReportEvaluation
  /// (0: none). Fixed positions, not a seeded share: retried calls are
  /// nearly free, so their share decides which fresh call is the median,
  /// and a seeded share moved the median by a fifth between seeds.
  int retry_period = 0;
  /// Share of reports that carry a FaultKind instead of metrics.
  double fault_fraction = 0.0;
  bool event_sessions = false;
  /// Auto-checkpoint to a file every `checkpoint_period` state-changing
  /// calls; 0 disables it.
  int checkpoint_period = 0;
  /// Load the paper's 34-task, 14-knob repository into the server.
  bool paper_repository = false;
  /// The first `quality_sessions` sessions (by index) are always driven
  /// to completion, so best_res_ratio is a fixed set per seed; 0 scores
  /// every session that completed inside the window.
  size_t quality_sessions = 0;
  /// Tail percentile of the end-to-end latencies; the largest that keeps
  /// ten samples beyond it at this workload's rate.
  double tail_q = 99.0;
  /// Rounds per second the reference machine sustains. It sizes the
  /// measured pass from --seconds, so a run's work is a function of
  /// (workload, seed, seconds) and not of the machine's speed.
  double nominal_rounds_per_s = 1.0;
  /// The host-speed probe whose work is most like this workload's.
  Probe probe = Probe::kNumeric;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Historical knowledge the server starts from, rebuilt by every set-up.
struct Knowledge {
  restune::WorkloadCharacterizer characterizer;
  /// Meta-feature per WorkloadKind, in StandardWorkloads() order.
  std::vector<Vector> meta_features;
  std::vector<restune::TuningTask> tasks;
};
Knowledge BuildKnowledge(const WorkloadSpec& spec);

ServerOptions MakeServerOptions(const WorkloadSpec& spec,
                                const std::string& checkpoint_path);
KnobSpace TenantKnobSpace(const WorkloadSpec& spec);

/// Session `index` of a run: its submission and its private simulator.
/// A pure function of (spec, seed, index).
struct Blueprint {
  TargetTaskSubmission submission;
  std::unique_ptr<DbInstanceSimulator> sim;
  restune::SlaConstraints sla;
};
Blueprint MakeBlueprint(const WorkloadSpec& spec, const Knowledge& knowledge,
                        uint64_t seed, uint64_t index);

/// Per-round decisions, a pure function of (seed, session, round).
bool RoundRetries(const WorkloadSpec& spec, uint64_t index, int round);
restune::FaultKind RoundFault(const WorkloadSpec& spec, uint64_t seed,
                              uint64_t index, int round);

/// The tuning API as a tenant sees it. Implementations: over the wire
/// (TuningClient) or straight into ResTuneServer.
class Endpoint {
 public:
  explicit Endpoint(size_t connection) : connection_(connection) {}
  virtual ~Endpoint() = default;
  virtual restune::Result<uint64_t> StartSession(
      const TargetTaskSubmission& submission) = 0;
  virtual restune::Result<KnobRecommendation> Recommend(uint64_t id) = 0;
  virtual restune::Status ReportEvaluation(
      const restune::EvaluationReport& report) = 0;
  virtual restune::Result<SessionSummary> FinishSession(uint64_t id) = 0;
  /// Index of the generator connection this endpoint belongs to.
  size_t connection() const { return connection_; }
  /// Calls made so far; over the wire this is the last request_id sent.
  uint64_t calls() const { return calls_; }

 protected:
  uint64_t calls_ = 0;

 private:
  size_t connection_;
};

/// Kinds of wire call, for per-type accounting.
enum class Op : uint8_t { kStart, kRecommend, kReport, kFinish };
inline constexpr size_t kNumOps = 4;
const char* OpName(Op op);

/// One client call as the generator saw it (traced runs).
struct CallRecord {
  size_t connection = 0;
  uint64_t request_id = 0;
  Op op = Op::kRecommend;
  double rtt_us = 0.0;
};

/// What one session did, for the correctness checks and best_res_ratio.
struct SessionOutcome {
  uint64_t index = 0;
  int rounds = 0;
  bool complete = false;
  std::vector<Vector> thetas;
  double default_res = 0.0;
  double server_best_res = 0.0;
  /// Best feasible res over the reported rounds, tracked client-side.
  double client_best_res = 0.0;
};

/// Samples one generator thread collects.
struct Samples {
  std::vector<double> recommend_ms;
  std::vector<double> report_ms;
  /// A RunRounds times each round and spec.probe after it; each Recommend
  /// and report carries the index of its round in these.
  std::vector<double> round_ms;
  std::vector<double> probe_ms;
  std::vector<uint32_t> recommend_round;
  std::vector<uint32_t> report_round;
  std::vector<double> start_ms;
  std::vector<double> evaluate_us;
  std::vector<CallRecord> calls;
  OpCounts ops;
  uint64_t rounds = 0;
  /// Rounds completed in each whole second since the epoch.
  std::vector<uint64_t> rounds_by_second;
  uint64_t fresh_recommends = 0;
  uint64_t fresh_reports = 0;
  /// State-changing server calls (what auto-checkpointing counts).
  uint64_t mutations = 0;
  double last_done_s = 0.0;
  std::vector<SessionOutcome> sessions;
  std::vector<std::string> violations;

  void Merge(Samples&& other);
  void Violation(std::string what);
};

/// How requests reach the server.
enum class Transport {
  kWire,        // WireServer + TuningClient over loopback
  kTracedWire,  // the same, with a benchmark-owned loop timing each handler
  kDirect,      // direct ResTuneServer calls, no transport
};

/// Server-side handler timings of a traced run, keyed by (connection,
/// request_id), plus a sample of frames for the codec measurements.
/// Connection ids 1..n are the generator's connections in connect order.
class HandlerLog {
 public:
  struct Entry {
    uint8_t type = 0;
    double us = 0.0;
  };
  explicit HandlerLog(size_t connections);
  void Record(uint64_t client_id, const restune::net::Frame& request,
              double us, const std::string& response_frame);
  std::optional<Entry> Find(uint64_t client_id, uint64_t request_id) const;
  /// Request frames and their encoded responses, in arrival order.
  std::vector<std::pair<restune::net::Frame, std::string>> TakeSample();

 private:
  static constexpr size_t kMaxSample = 4000;
  /// Handler calls of one connection, indexed by request_id - 1. Frames of
  /// one connection are handled one at a time, so the lock is uncontended.
  struct Connection {
    mutable std::mutex mu;
    std::vector<Entry> entries;
  };
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<size_t> sampled_{0};
  std::mutex sample_mu_;
  std::vector<std::pair<restune::net::Frame, std::string>> sample_;
};

/// A set-up server with its transport, connections and first sessions.
class Environment {
 public:
  /// Set-up: knowledge, server, transport, connections, first sessions.
  /// `connections` overrides spec.connections when non-zero, and raises
  /// spec.tenants to at least one per connection.
  static std::unique_ptr<Environment> Create(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             Transport transport,
                                             const std::string& tmp_dir,
                                             size_t connections = 0);
  ~Environment();

  /// Seconds the set-up took.
  double setup_s() const { return setup_s_; }

  /// Drives the workload for `seconds` and returns the merged samples.
  /// `midpoint` (may be empty) runs on the calling thread half-way.
  Samples Run(double seconds, const std::function<void()>& midpoint = {});

  /// Drives the workload until each connection has completed `rounds`
  /// rounds, however long that takes, and times spec.probe after each
  /// round.
  Samples RunRounds(uint64_t rounds);

  /// Ends every open session after a run. With `complete_quality`, the
  /// sessions in the quality set are first driven to their full length.
  /// Returns those outcomes (their latencies are not recorded).
  Samples Drain(bool complete_quality);

  /// Opens `sessions` sessions one at a time on the first connection and
  /// finishes each at once: StartSession latency on an otherwise idle
  /// server.
  Samples StartProbe(size_t sessions);

  ResTuneServer& server() { return *server_; }
  const Knowledge& knowledge() const { return knowledge_; }
  const WorkloadSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  HandlerLog& handler_log() { return *handler_log_; }
  const std::string& checkpoint_path() const { return checkpoint_path_; }

 private:
  struct Slot;
  struct Wire;
  Environment(const WorkloadSpec& spec, uint64_t seed);
  /// Runs every connection's closed loop until `seconds` have passed or,
  /// when `max_rounds` is non-zero, it has completed that many rounds.
  Samples Drive(double seconds, uint64_t max_rounds,
                const std::function<void()>& midpoint);
  void RunClosed(size_t connection, Clock::time_point epoch, double seconds,
                 uint64_t max_rounds, Samples* out);
  /// One Recommend→Report round for a slot; finishes the session after
  /// its last round and opens the slot's next one (while draining, only
  /// if that one is in the quality set).
  void Round(Slot* slot, Endpoint* endpoint, Clock::time_point epoch,
             Samples* out, bool draining);
  bool StartInSlot(Slot* slot, Endpoint* endpoint, Clock::time_point epoch,
                   Samples* out);
  void FinishSlot(Slot* slot, Endpoint* endpoint, Clock::time_point epoch,
                  Samples* out);

  WorkloadSpec spec_;
  uint64_t seed_;
  double setup_s_ = 0.0;
  std::string checkpoint_path_;
  Knowledge knowledge_;
  std::unique_ptr<ResTuneServer> server_;
  std::unique_ptr<HandlerLog> handler_log_;
  std::unique_ptr<Wire> wire_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Same length and the same doubles, bit for bit.
bool BitwiseEqual(const Vector& a, const Vector& b);

/// Seconds since `epoch`.
inline double Since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Bytes the allocator has handed out and not taken back, in MiB: the
/// live heap of server and generator. Unlike the resident set, it does not
/// depend on how the allocator's per-thread arenas happened to fragment.
double HeapMb();

/// Merged counter values of the process-wide metrics registry.
std::map<std::string, int64_t> CounterValues();
int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Traced run (--trace 1): per-layer metrics, printing the layer
/// accounting along the way. Appends correctness failures to `problems`.
std::vector<Metric> RunTraced(const WorkloadSpec& spec, uint64_t seed,
                              double seconds, const std::string& tmp_dir,
                              std::vector<std::string>* problems,
                              OpCounts* ops);

/// Checks shared by both modes; each failure is appended to `problems`.
void CheckSessions(const Samples& samples, std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // RESTUNE_PERFBENCH_BENCH_H_
