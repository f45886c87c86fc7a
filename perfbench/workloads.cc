// Workloads, set-up and the load generator of the repository benchmark.

#include <malloc.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "bench.h"
#include "meta/base_learner_cache.h"
#include "obs/metrics.h"
#include "service/tuning_client.h"
#include "service/wire.h"
#include "service/wire_server.h"

namespace perfbench {

using restune::EvaluationReport;
using restune::FaultKind;
using restune::Result;
using restune::Status;

namespace {

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;

    WorkloadSpec meta;
    meta.name = "meta-session";
    meta.paper_sessions = true;
    // One session at a time, so a pass is many whole sessions.
    meta.tenants = 1;
    meta.rounds_per_session = 40;
    meta.quality_sessions = 12;
    meta.tail_q = 95.0;
    meta.nominal_rounds_per_s = 18.0;
    all.push_back(meta);

    WorkloadSpec ckpt;
    ckpt.name = "fleet-checkpoint";
    ckpt.tenants = 8;
    ckpt.rounds_per_session = 8;
    ckpt.retry_period = 4;
    ckpt.fault_fraction = 0.05;
    ckpt.event_sessions = true;
    ckpt.checkpoint_period = 1;
    ckpt.paper_repository = true;
    ckpt.tail_q = 95.0;
    ckpt.nominal_rounds_per_s = 9.0;
    ckpt.probe = Probe::kText;
    all.push_back(ckpt);
    return all;
  }();
  return specs;
}

class WireEndpoint : public Endpoint {
 public:
  WireEndpoint(size_t connection, restune::TuningClient client)
      : Endpoint(connection), client_(std::move(client)) {}
  Result<uint64_t> StartSession(const TargetTaskSubmission& s) override {
    ++calls_;
    return client_.StartSession(s);
  }
  Result<KnobRecommendation> Recommend(uint64_t id) override {
    ++calls_;
    return client_.Recommend(id);
  }
  Status ReportEvaluation(const EvaluationReport& report) override {
    ++calls_;
    return client_.ReportEvaluation(report);
  }
  Result<SessionSummary> FinishSession(uint64_t id) override {
    ++calls_;
    return client_.FinishSession(id);
  }

 private:
  restune::TuningClient client_;
};

class DirectEndpoint : public Endpoint {
 public:
  DirectEndpoint(size_t connection, ResTuneServer* server)
      : Endpoint(connection), server_(server) {}
  Result<uint64_t> StartSession(const TargetTaskSubmission& s) override {
    ++calls_;
    return server_->StartSession(s);
  }
  Result<KnobRecommendation> Recommend(uint64_t id) override {
    ++calls_;
    return server_->Recommend(id);
  }
  Status ReportEvaluation(const EvaluationReport& report) override {
    ++calls_;
    return server_->ReportEvaluation(report);
  }
  Result<SessionSummary> FinishSession(uint64_t id) override {
    ++calls_;
    return server_->FinishSession(id);
  }

 private:
  ResTuneServer* server_;
};

/// Runs one client call, logs it as `op` with its round trip (also into
/// `latency_ms` when given) and counts it as attempted or failed.
template <typename Call>
auto TimedCall(Endpoint* endpoint, Op op, Clock::time_point epoch,
               std::vector<double>* latency_ms, Samples* out, Call call) {
  const double sent = Since(epoch);
  auto result = call();
  const double rtt_s = Since(epoch) - sent;
  out->calls.push_back(
      {endpoint->connection(), endpoint->calls(), op, rtt_s * 1e6});
  if (latency_ms != nullptr) latency_ms->push_back(rtt_s * 1e3);
  out->ops.Record(result.ok());
  return result;
}

/// Probe sessions get indices far above any session a run can reach, so
/// their blueprints never repeat a tenant's.
constexpr uint64_t kProbeIndexBase = uint64_t{1} << 40;

}  // namespace

bool BitwiseEqual(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kStart:
      return "start";
    case Op::kRecommend:
      return "recommend";
    case Op::kReport:
      return "report";
    case Op::kFinish:
      return "finish";
  }
  return "?";
}

KnobSpace TenantKnobSpace(const WorkloadSpec& spec) {
  return spec.paper_sessions ? restune::CpuKnobSpace()
                             : restune::CaseStudyKnobSpace();
}

Knowledge BuildKnowledge(const WorkloadSpec& spec) {
  Knowledge k;
  k.characterizer = restune::TrainDefaultCharacterizer(7);
  for (const restune::WorkloadProfile& w : restune::StandardWorkloads()) {
    k.meta_features.push_back(restune::ComputeMetaFeature(k.characterizer, w));
  }
  // The repository is the server's history, not a workload input: it is
  // built from a fixed seed.
  restune::ExperimentConfig history;
  if (!spec.paper_sessions) {
    // A small repository of 3-knob tasks for the fleet tenants.
    const KnobSpace space = restune::CaseStudyKnobSpace();
    std::vector<restune::WorkloadProfile> workloads = {
        restune::MakeWorkload(restune::WorkloadKind::kTwitter).value(),
        restune::TwitterVariation(2).value(),
        restune::TwitterVariation(4).value()};
    for (char label : {'A', 'B'}) {
      const restune::HardwareSpec hw = restune::HardwareInstance(label).value();
      for (const restune::WorkloadProfile& w : workloads) {
        k.tasks.push_back(restune::CollectHistoryTask(
            space, hw, w, k.characterizer, history, 30));
      }
    }
  }
  if (spec.paper_sessions || spec.paper_repository) {
    const DataRepository paper = restune::BuildPaperRepository(
        restune::CpuKnobSpace(), k.characterizer, history);
    k.tasks.insert(k.tasks.end(), paper.tasks().begin(), paper.tasks().end());
  }
  return k;
}

ServerOptions MakeServerOptions(const WorkloadSpec& spec,
                                const std::string& checkpoint_path) {
  ServerOptions options;
  // Archiving would make a session's ensemble depend on which sessions
  // finished before it started; without it every session is a pure
  // function of its submission and evaluations.
  options.archive_finished_sessions = false;
  if (!spec.paper_sessions) {
    // bench_fleet's cheap advisor: the fleet times the service, not BO.
    options.advisor.acq_optimizer.num_candidates = 32;
    options.advisor.acq_optimizer.num_refine = 1;
    options.advisor.acq_optimizer.refine_passes = 2;
  }
  options.use_event_sessions = spec.event_sessions;
  if (spec.checkpoint_period > 0) {
    options.checkpoint_path = checkpoint_path;
    options.checkpoint_period = spec.checkpoint_period;
  }
  return options;
}

Blueprint MakeBlueprint(const WorkloadSpec& spec, const Knowledge& knowledge,
                        uint64_t seed, uint64_t index) {
  const std::vector<restune::WorkloadProfile> workloads =
      restune::StandardWorkloads();
  const size_t kind = index % workloads.size();
  // Paper sessions tune one instance type, so a run's quality figure
  // compares like with like across seeds; fleet tenants spread over four.
  const char instance =
      spec.paper_sessions ? 'E' : "CDEF"[MixSeed(seed, index, 1) % 4];
  restune::ExperimentConfig config;
  config.seed = MixSeed(seed, index, 2);
  const KnobSpace space = TenantKnobSpace(spec);
  Result<DbInstanceSimulator> sim =
      restune::MakeSimulator(space, instance, workloads[kind], config);
  if (!sim.ok()) throw MetricError("simulator: " + sim.status().ToString());
  Blueprint bp;
  bp.sim = std::make_unique<DbInstanceSimulator>(std::move(sim).value());
  Result<restune::Observation> def = bp.sim->EvaluateDefault();
  if (!def.ok()) throw MetricError("default: " + def.status().ToString());
  bp.submission.task_name = spec.name + "-" + std::to_string(index);
  bp.submission.meta_feature = knowledge.meta_features[kind];
  bp.submission.knob_dim = space.dim();
  bp.submission.default_theta = space.DefaultTheta();
  bp.submission.default_observation = *def;
  bp.submission.resource = "cpu";
  bp.sla = DbInstanceSimulator::ConstraintsFromDefault(*def);
  return bp;
}

bool RoundRetries(const WorkloadSpec& spec, uint64_t index, int round) {
  if (spec.retry_period <= 0) return false;
  // Offset by the session, so tenants do not all retry the same round.
  return (index + static_cast<uint64_t>(round)) %
             static_cast<uint64_t>(spec.retry_period) ==
         0;
}

FaultKind RoundFault(const WorkloadSpec& spec, uint64_t seed, uint64_t index,
                     int round) {
  if (spec.fault_fraction <= 0.0) return FaultKind::kNone;
  SplitMix rng(MixSeed(seed, index, 2000 + round));
  if (rng.Uniform() >= spec.fault_fraction) return FaultKind::kNone;
  static constexpr FaultKind kKinds[] = {FaultKind::kCrash, FaultKind::kTimeout,
                                         FaultKind::kTransient};
  return kKinds[rng.Next() % 3];
}

void Samples::Merge(Samples&& o) {
  auto append = [](auto* into, auto&& from) {
    into->insert(into->end(), std::make_move_iterator(from.begin()),
                 std::make_move_iterator(from.end()));
  };
  append(&recommend_ms, std::move(o.recommend_ms));
  append(&report_ms, std::move(o.report_ms));
  const auto offset = static_cast<uint32_t>(round_ms.size());
  for (uint32_t r : o.recommend_round) recommend_round.push_back(offset + r);
  for (uint32_t r : o.report_round) report_round.push_back(offset + r);
  append(&round_ms, std::move(o.round_ms));
  append(&probe_ms, std::move(o.probe_ms));
  append(&start_ms, std::move(o.start_ms));
  append(&evaluate_us, std::move(o.evaluate_us));
  append(&calls, std::move(o.calls));
  append(&sessions, std::move(o.sessions));
  append(&violations, std::move(o.violations));
  ops.Merge(o.ops);
  rounds += o.rounds;
  if (rounds_by_second.size() < o.rounds_by_second.size()) {
    rounds_by_second.resize(o.rounds_by_second.size());
  }
  for (size_t i = 0; i < o.rounds_by_second.size(); ++i) {
    rounds_by_second[i] += o.rounds_by_second[i];
  }
  fresh_recommends += o.fresh_recommends;
  fresh_reports += o.fresh_reports;
  mutations += o.mutations;
  last_done_s = std::max(last_done_s, o.last_done_s);
}

void Samples::Violation(std::string what) {
  // Keep the first few; one broken invariant usually repeats per round.
  if (violations.size() < 20) violations.push_back(std::move(what));
}

HandlerLog::HandlerLog(size_t connections) {
  for (size_t c = 0; c < connections; ++c) {
    connections_.push_back(std::make_unique<Connection>());
  }
}

void HandlerLog::Record(uint64_t client_id, const restune::net::Frame& request,
                        double us, const std::string& response_frame) {
  uint64_t request_id = 0;
  (void)restune::PeekRequestId(request.payload, &request_id);
  if (client_id >= 1 && client_id <= connections_.size() && request_id >= 1) {
    Connection& c = *connections_[client_id - 1];
    std::lock_guard<std::mutex> lock(c.mu);
    if (c.entries.size() < request_id) c.entries.resize(request_id);
    c.entries[request_id - 1] = Entry{request.type, us};
  }
  if (sampled_.fetch_add(1, std::memory_order_relaxed) < kMaxSample) {
    std::lock_guard<std::mutex> lock(sample_mu_);
    sample_.emplace_back(request, response_frame);
  }
}

std::optional<HandlerLog::Entry> HandlerLog::Find(uint64_t client_id,
                                                  uint64_t request_id) const {
  if (client_id < 1 || client_id > connections_.size() || request_id < 1) {
    return std::nullopt;
  }
  const Connection& c = *connections_[client_id - 1];
  std::lock_guard<std::mutex> lock(c.mu);
  if (request_id > c.entries.size() || c.entries[request_id - 1].type == 0) {
    return std::nullopt;
  }
  return c.entries[request_id - 1];
}

std::vector<std::pair<restune::net::Frame, std::string>>
HandlerLog::TakeSample() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  return std::move(sample_);
}

struct Environment::Slot {
  size_t index = 0;
  /// Sessions opened in this slot so far; session index = generation ·
  /// tenants + slot, so a slot's k-th session is the same for every run.
  uint64_t generation = 0;
  bool open = false;
  uint64_t session_id = 0;
  Blueprint bp;
  SessionOutcome outcome;
};

struct Environment::Wire {
  std::unique_ptr<restune::WireServer> server;
  /// Traced transport: the benchmark's own loop around WireServer's
  /// handler, so each call can be timed.
  std::unique_ptr<restune::net::WireLoop> traced_loop;
  std::thread traced_thread;

  ~Wire() {
    if (traced_loop != nullptr) {
      traced_loop->RequestStop();
      traced_thread.join();
    }
  }
};

Environment::Environment(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed) {}

Environment::~Environment() {
  endpoints_.clear();  // close client sockets before the loop goes
  wire_.reset();
  server_.reset();
}

std::unique_ptr<Environment> Environment::Create(const WorkloadSpec& spec,
                                                 uint64_t seed,
                                                 Transport transport,
                                                 const std::string& tmp_dir,
                                                 size_t connections) {
  std::unique_ptr<Environment> env(new Environment(spec, seed));
  if (connections != 0) {
    env->spec_.connections = connections;
    env->spec_.tenants = std::max(spec.tenants, connections);
  }
  const Clock::time_point t0 = Clock::now();
  // A server process starts with an empty base-learner cache; so does
  // every set-up here.
  restune::BaseLearnerCache::Global()->Clear();
  env->knowledge_ = BuildKnowledge(spec);
  if (spec.checkpoint_period > 0) {
    env->checkpoint_path_ = tmp_dir + "/" + spec.name + ".ckpt";
  }
  env->server_ = std::make_unique<ResTuneServer>(
      MakeServerOptions(spec, env->checkpoint_path_));
  for (const restune::TuningTask& task : env->knowledge_.tasks) {
    const Status st = env->server_->AddHistoricalTask(task);
    if (!st.ok()) throw MetricError("repository: " + st.ToString());
  }

  if (transport == Transport::kDirect) {
    for (size_t c = 0; c < env->spec_.connections; ++c) {
      env->endpoints_.push_back(
          std::make_unique<DirectEndpoint>(c, env->server_.get()));
    }
  } else {
    env->wire_ = std::make_unique<Wire>();
    restune::WireServerOptions wire_options;
    env->wire_->server = std::make_unique<restune::WireServer>(
        env->server_.get(), wire_options);
    uint16_t port = 0;
    if (transport == Transport::kWire) {
      const Status st = env->wire_->server->Start();
      if (!st.ok()) throw MetricError("wire server: " + st.ToString());
      port = env->wire_->server->port();
    } else {
      restune::WireServer* handler = env->wire_->server.get();
      env->handler_log_ =
          std::make_unique<HandlerLog>(env->spec_.connections);
      HandlerLog* log = env->handler_log_.get();
      env->wire_->traced_loop = std::make_unique<restune::net::WireLoop>(
          [handler, log](uint64_t client_id, const restune::net::Frame& f) {
            const Clock::time_point start = Clock::now();
            restune::net::HandlerResult result =
                handler->HandleFrame(client_id, f);
            const double us =
                std::chrono::duration<double, std::micro>(Clock::now() - start)
                    .count();
            log->Record(client_id, f, us, result.response);
            return result;
          },
          wire_options.loop);
      const Status st = env->wire_->traced_loop->Open();
      if (!st.ok()) throw MetricError("traced loop: " + st.ToString());
      restune::net::WireLoop* loop = env->wire_->traced_loop.get();
      env->wire_->traced_thread =
          std::thread([loop] { (void)loop->RunUntilStopped(); });
      port = loop->port();
    }
    // Connect one at a time: the loop numbers connections in accept
    // order, so connection c is client id c + 1 in the handler log.
    for (size_t c = 0; c < env->spec_.connections; ++c) {
      Result<restune::TuningClient> client =
          restune::TuningClient::Connect("127.0.0.1", port);
      if (!client.ok()) throw MetricError("connect: " + client.status().ToString());
      env->endpoints_.push_back(
          std::make_unique<WireEndpoint>(c, std::move(client).value()));
    }
  }

  Samples first;
  for (size_t s = 0; s < env->spec_.tenants; ++s) {
    env->slots_.push_back(std::make_unique<Slot>());
    env->slots_.back()->index = s;
    if (!env->StartInSlot(env->slots_.back().get(),
                          env->endpoints_[s % env->spec_.connections].get(),
                          t0, &first)) {
      throw MetricError("set-up: first session failed to start");
    }
  }
  env->setup_s_ = Since(t0);
  return env;
}

bool Environment::StartInSlot(Slot* slot, Endpoint* endpoint,
                              Clock::time_point epoch, Samples* out) {
  const uint64_t index = slot->generation * spec_.tenants + slot->index;
  ++slot->generation;
  slot->bp = MakeBlueprint(spec_, knowledge_, seed_, index);
  const Result<uint64_t> id =
      TimedCall(endpoint, Op::kStart, epoch, &out->start_ms, out,
                [&] { return endpoint->StartSession(slot->bp.submission); });
  if (!id.ok()) {
    out->Violation("StartSession failed: " + id.status().ToString());
    return false;
  }
  ++out->mutations;
  slot->open = true;
  slot->session_id = *id;
  slot->outcome = SessionOutcome();
  slot->outcome.index = index;
  slot->outcome.default_res = slot->bp.submission.default_observation.res;
  slot->outcome.client_best_res = slot->outcome.default_res;
  return true;
}

void Environment::FinishSlot(Slot* slot, Endpoint* endpoint,
                             Clock::time_point epoch, Samples* out) {
  const Result<SessionSummary> summary =
      TimedCall(endpoint, Op::kFinish, epoch, nullptr, out,
                [&] { return endpoint->FinishSession(slot->session_id); });
  slot->open = false;
  if (!summary.ok()) {
    out->Violation("FinishSession failed: " + summary.status().ToString());
    return;
  }
  ++out->mutations;
  SessionOutcome& outcome = slot->outcome;
  if (summary->iterations != outcome.rounds) {
    out->Violation("session " + std::to_string(outcome.index) +
                   ": summary counts " + std::to_string(summary->iterations) +
                   " iterations, the client drove " +
                   std::to_string(outcome.rounds));
  }
  outcome.server_best_res = summary->best_feasible_res;
  if (outcome.server_best_res != outcome.client_best_res) {
    out->Violation("session " + std::to_string(outcome.index) +
                   ": server best feasible res differs from the reports");
  }
  outcome.complete = outcome.rounds == spec_.rounds_per_session;
  out->sessions.push_back(std::move(outcome));
}

void Environment::Round(Slot* slot, Endpoint* endpoint,
                        Clock::time_point epoch, Samples* out, bool draining) {
  if (!slot->open && !StartInSlot(slot, endpoint, epoch, out)) return;
  SessionOutcome& outcome = slot->outcome;
  const int round = outcome.rounds + 1;
  const bool retry = RoundRetries(spec_, outcome.index, round);
  const std::string who = "session " + std::to_string(outcome.index) +
                          " round " + std::to_string(round);

  const auto recommend = [&] { return endpoint->Recommend(slot->session_id); };
  const Result<KnobRecommendation> rec = TimedCall(
      endpoint, Op::kRecommend, epoch, &out->recommend_ms, out, recommend);
  if (!rec.ok()) {
    out->Violation(who + ": Recommend failed: " + rec.status().ToString());
    slot->open = false;  // abandon the session
    return;
  }
  ++out->fresh_recommends;
  ++out->mutations;
  if (rec->iteration != round) {
    out->Violation(who + ": Recommend issued iteration " +
                   std::to_string(rec->iteration) +
                   " (a lost or duplicated evaluation)");
  }
  if (retry) {
    // The client lost the response and asks again: it must get the same
    // outstanding recommendation back, not a new iteration.
    const Result<KnobRecommendation> again = TimedCall(
        endpoint, Op::kRecommend, epoch, &out->recommend_ms, out, recommend);
    if (!again.ok()) {
      out->Violation(who + ": retried Recommend failed: " +
                     again.status().ToString());
    } else if (again->iteration != rec->iteration ||
               !BitwiseEqual(again->theta, rec->theta)) {
      out->Violation(who + ": retried Recommend returned a different θ");
    }
  }

  // Replay the recommendation on the tenant's simulated instance.
  const Clock::time_point eval_start = Clock::now();
  Result<restune::Observation> obs = slot->bp.sim->Evaluate(rec->theta);
  out->evaluate_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - eval_start)
          .count());
  if (!obs.ok()) {
    out->Violation(who + ": simulator failed: " + obs.status().ToString());
    slot->open = false;
    return;
  }
  EvaluationReport report;
  report.session_id = slot->session_id;
  report.iteration = rec->iteration;
  report.observation = *obs;
  report.fault = RoundFault(spec_, seed_, outcome.index, round);

  for (int attempt = 0; attempt < (retry ? 2 : 1); ++attempt) {
    const Status st =
        TimedCall(endpoint, Op::kReport, epoch, &out->report_ms, out,
                  [&] { return endpoint->ReportEvaluation(report); });
    if (!st.ok()) {
      out->Violation(who + ": ReportEvaluation failed: " + st.ToString());
      slot->open = false;
      return;
    }
  }
  ++out->fresh_reports;
  ++out->mutations;
  ++out->rounds;
  const double done = Since(epoch);
  const auto second = static_cast<size_t>(done);
  if (out->rounds_by_second.size() <= second) {
    out->rounds_by_second.resize(second + 1);
  }
  ++out->rounds_by_second[second];
  out->last_done_s = done;
  outcome.rounds = round;
  outcome.thetas.push_back(rec->theta);
  if (report.fault == FaultKind::kNone && slot->bp.sla.IsFeasible(*obs) &&
      obs->res < outcome.client_best_res) {
    outcome.client_best_res = obs->res;
  }

  if (round == spec_.rounds_per_session) {
    FinishSlot(slot, endpoint, epoch, out);
    const uint64_t next = slot->generation * spec_.tenants + slot->index;
    if (!draining || next < spec_.quality_sessions) {
      StartInSlot(slot, endpoint, epoch, out);
    }
  }
}

void Environment::RunClosed(size_t connection, Clock::time_point epoch,
                            double seconds, uint64_t max_rounds,
                            Samples* out) {
  std::vector<Slot*> mine;
  for (size_t s = connection; s < slots_.size(); s += spec_.connections) {
    mine.push_back(slots_[s].get());
  }
  if (mine.empty()) return;
  Endpoint* endpoint = endpoints_[connection].get();
  for (size_t i = 0; Since(epoch) < seconds &&
                     (max_rounds == 0 || out->rounds < max_rounds);
       i = (i + 1) % mine.size()) {
    const double start = Since(epoch);
    Round(mine[i], endpoint, epoch, out, /*draining=*/false);
    if (max_rounds > 0) {
      // A failed round does not count, and the run fails anyway: stop
      // rather than retry without end.
      if (!out->violations.empty()) break;
      out->round_ms.push_back((Since(epoch) - start) * 1e3);
      out->probe_ms.push_back(ProbeMs(spec_.probe));
      const auto round = static_cast<uint32_t>(out->round_ms.size() - 1);
      out->recommend_round.resize(out->recommend_ms.size(), round);
      out->report_round.resize(out->report_ms.size(), round);
    }
  }
}

Samples Environment::Run(double seconds,
                          const std::function<void()>& midpoint) {
  return Drive(seconds, 0, midpoint);
}

Samples Environment::RunRounds(uint64_t rounds) {
  return Drive(std::numeric_limits<double>::infinity(), rounds, {});
}

Samples Environment::Drive(double seconds, uint64_t max_rounds,
                           const std::function<void()>& midpoint) {
  const size_t n = spec_.connections;
  std::vector<Samples> per_thread(n);
  const Clock::time_point epoch = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        RunClosed(c, epoch, seconds, max_rounds, &per_thread[c]);
      } catch (const std::exception& e) {
        per_thread[c].Violation(std::string("generator: ") + e.what());
      }
    });
  }
  if (midpoint) {
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds / 2)));
    midpoint();
  }
  for (std::thread& t : threads) t.join();
  Samples total;
  for (Samples& s : per_thread) total.Merge(std::move(s));
  return total;
}

Samples Environment::Drain(bool complete_quality) {
  const size_t n = spec_.connections;
  std::vector<Samples> per_thread(n);
  const Clock::time_point epoch = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Endpoint* endpoint = endpoints_[c].get();
      Samples* out = &per_thread[c];
      try {
        for (size_t s = c; s < slots_.size(); s += n) {
          Slot* slot = slots_[s].get();
          while (complete_quality && slot->open &&
                 slot->outcome.index < spec_.quality_sessions) {
            Round(slot, endpoint, epoch, out, /*draining=*/true);
          }
          if (slot->open) FinishSlot(slot, endpoint, epoch, out);
        }
      } catch (const std::exception& e) {
        out->Violation(std::string("drain: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Samples total;
  for (Samples& s : per_thread) total.Merge(std::move(s));
  return total;
}

Samples Environment::StartProbe(size_t sessions) {
  Samples out;
  const Clock::time_point epoch = Clock::now();
  Endpoint* endpoint = endpoints_[0].get();
  try {
    for (size_t j = 0; j < sessions; ++j) {
      Slot probe;
      probe.index = kProbeIndexBase + j;
      if (StartInSlot(&probe, endpoint, epoch, &out)) {
        FinishSlot(&probe, endpoint, epoch, &out);
      }
    }
  } catch (const std::exception& e) {
    out.Violation(std::string("start probe: ") + e.what());
  }
  // Probe sessions are not tenants: keep only their latencies and checks.
  out.sessions.clear();
  return out;
}

double HeapMb() {
  const struct mallinfo2 info = mallinfo2();  // summed over all arenas
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::map<std::string, int64_t> CounterValues() {
  std::map<std::string, int64_t> values;
  for (const auto& [name, value] :
       restune::obs::MetricsRegistry::Global()->Counters()) {
    values[name] = value;
  }
  return values;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

void CheckSessions(const Samples& samples, std::vector<std::string>* problems) {
  for (const std::string& v : samples.violations) problems->push_back(v);
  if (samples.ops.failed > 0) {
    problems->push_back(std::to_string(samples.ops.failed) + " of " +
                        std::to_string(samples.ops.attempted) +
                        " operations failed or were refused");
  }
}

}  // namespace perfbench
