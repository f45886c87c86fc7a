// The traced run (--trace 1): per-layer metrics measured from outside the
// program, by timing calls into each layer's public functions and by
// reading deltas of the counters the program already exports.
//
// Phases, each on a freshly set-up server:
//   A  untraced wire run         (the reference for trace overhead)
//   B  traced wire run          (handler timed in a benchmark-owned loop,
//                                 checkpoints sampled at start/middle/end,
//                                 counter deltas)
//   C  direct calls, 4 threads   (service call latency, no transport)
//   D  direct calls, 1 thread    (the same without lock contention)
// then in-process replicas of the workload's sessions for the tuner, meta
// and gp layers, and codec timings over the frames phase B carried.

#include <algorithm>
#include <array>
#include <exception>
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "common/thread_pool.h"
#include "gp/multi_output_gp.h"
#include "meta/base_learner_cache.h"
#include "service/wire.h"
#include "tuner/restune_advisor.h"

namespace perfbench {
namespace {

using restune::Result;
using restune::Status;
using restune::WireMessageType;
using restune::net::Frame;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double RoundsPerS(const Samples& s, double seconds) {
  return static_cast<double>(s.rounds) / std::max(seconds, s.last_done_s);
}

double PerRound(int64_t count, uint64_t rounds) {
  return rounds == 0 ? 0.0
                     : static_cast<double>(count) / static_cast<double>(rounds);
}

WireMessageType RequestType(Op op) {
  switch (op) {
    case Op::kStart:
      return WireMessageType::kStartSessionRequest;
    case Op::kRecommend:
      return WireMessageType::kRecommendRequest;
    case Op::kReport:
      return WireMessageType::kReportEvaluationRequest;
    case Op::kFinish:
      return WireMessageType::kFinishSessionRequest;
  }
  return WireMessageType::kErrorResponse;
}

/// SaveCheckpoint to memory and SaveCheckpointFile, three times each.
struct CheckpointSamples {
  std::vector<double> memory_us;
  std::vector<double> file_us;
  std::vector<double> bytes;
};

void SampleCheckpoint(ResTuneServer& server, const std::string& path,
                      CheckpointSamples* out) {
  for (int i = 0; i < 3; ++i) {
    std::ostringstream os;
    Clock::time_point t = Clock::now();
    const Status mem = server.SaveCheckpoint(&os);
    out->memory_us.push_back(UsSince(t));
    out->bytes.push_back(static_cast<double>(os.str().size()));
    t = Clock::now();
    const Status file = server.SaveCheckpointFile(path);
    out->file_us.push_back(UsSince(t));
    if (!mem.ok() || !file.ok()) throw MetricError("checkpoint sample failed");
  }
}

/// Client round trip split at the handler boundary, per call kind.
struct WireSplit {
  std::array<std::vector<double>, kNumOps> rtt_us;
  std::array<std::vector<double>, kNumOps> handler_us;
  std::array<std::vector<double>, kNumOps> transport_us;
};

WireSplit SplitCalls(const Samples& run, const HandlerLog& log,
                     std::vector<std::string>* problems) {
  WireSplit split;
  for (const CallRecord& call : run.calls) {
    // Connection c is the loop's client c + 1 (connected in order).
    const std::optional<HandlerLog::Entry> entry =
        log.Find(call.connection + 1, call.request_id);
    if (!entry.has_value() ||
        entry->type != static_cast<uint8_t>(RequestType(call.op))) {
      problems->push_back("traced run: no matching handler call for a " +
                          std::string(OpName(call.op)) + " request");
      return split;
    }
    const auto k = static_cast<size_t>(call.op);
    split.rtt_us[k].push_back(call.rtt_us);
    split.handler_us[k].push_back(entry->us);
    split.transport_us[k].push_back(call.rtt_us - entry->us);
  }
  return split;
}

/// Microseconds per item of `fn(i)` over items [0, n), repeated until the
/// timing covers at least 20 ms.
template <typename Fn>
double PerItemUs(size_t n, Fn fn) {
  if (n == 0) return 0.0;
  size_t items = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (size_t i = 0; i < n; ++i) fn(i);
    items += n;
  } while (UsSince(start) < 20e3);
  return UsSince(start) / static_cast<double>(items);
}

/// Codec costs of one call kind, per request.
struct CodecCost {
  double frame_us = 0.0;        // encode + decode of request and response
  double wire_client_us = 0.0;  // encode request, decode response
  double wire_server_us = 0.0;  // decode request, encode response
};

std::array<CodecCost, kNumOps> TimeCodecs(
    const std::vector<std::pair<Frame, std::string>>& sample) {
  std::array<std::vector<std::pair<const Frame*, Frame>>, kNumOps> by_op;
  for (const auto& [request, response_wire] : sample) {
    restune::net::FrameDecoder decoder;
    decoder.Feed(response_wire.data(), response_wire.size());
    Frame response;
    const Result<bool> got = decoder.Next(&response);
    if (!got.ok() || !*got) continue;
    for (size_t k = 0; k < kNumOps; ++k) {
      if (request.type == static_cast<uint8_t>(RequestType(static_cast<Op>(k))) &&
          response.type == request.type + 1) {
        by_op[k].emplace_back(&request, std::move(response));
      }
    }
  }

  std::array<CodecCost, kNumOps> cost;
  size_t sink = 0;
  for (size_t k = 0; k < kNumOps; ++k) {
    const auto& items = by_op[k];
    const size_t n = items.size();
    restune::net::FrameDecoder decoder;
    cost[k].frame_us = PerItemUs(n, [&](size_t i) {
      for (const Frame* f : {items[i].first, &items[i].second}) {
        const std::string wire = restune::net::EncodeFrame(f->type, f->payload);
        decoder.Feed(wire.data(), wire.size());
        Frame decoded;
        (void)decoder.Next(&decoded);
        sink += decoded.payload.size();
      }
    });
    uint64_t rid = 0;
    switch (static_cast<Op>(k)) {
      case Op::kStart: {
        std::vector<TargetTaskSubmission> subs(n);
        std::vector<uint64_t> ids(n);
        for (size_t i = 0; i < n; ++i) {
          (void)restune::DecodeStartSessionRequest(items[i].first->payload,
                                                   &rid, &subs[i]);
          (void)restune::DecodeStartSessionResponse(items[i].second.payload,
                                                    &rid, &ids[i]);
        }
        cost[k].wire_server_us = PerItemUs(n, [&](size_t i) {
          TargetTaskSubmission sub;
          (void)restune::DecodeStartSessionRequest(items[i].first->payload,
                                                   &rid, &sub);
          sink += restune::EncodeStartSessionResponse(rid, ids[i]).size();
        });
        cost[k].wire_client_us = PerItemUs(n, [&](size_t i) {
          uint64_t id = 0;
          sink += restune::EncodeStartSessionRequest(rid, subs[i]).size();
          (void)restune::DecodeStartSessionResponse(items[i].second.payload,
                                                    &rid, &id);
        });
        break;
      }
      case Op::kRecommend: {
        std::vector<std::vector<KnobRecommendation>> recs(n);
        std::vector<uint64_t> sids(n);
        uint32_t width = 0;
        for (size_t i = 0; i < n; ++i) {
          (void)restune::DecodeRecommendRequest(items[i].first->payload, &rid,
                                                &sids[i], &width);
          (void)restune::DecodeRecommendResponse(items[i].second.payload, &rid,
                                                 &recs[i]);
        }
        cost[k].wire_server_us = PerItemUs(n, [&](size_t i) {
          uint64_t sid = 0;
          (void)restune::DecodeRecommendRequest(items[i].first->payload, &rid,
                                                &sid, &width);
          sink += restune::EncodeRecommendResponse(rid, recs[i]).size();
        });
        cost[k].wire_client_us = PerItemUs(n, [&](size_t i) {
          std::vector<KnobRecommendation> decoded;
          sink += restune::EncodeRecommendRequest(rid, sids[i], 0).size();
          (void)restune::DecodeRecommendResponse(items[i].second.payload, &rid,
                                                 &decoded);
        });
        break;
      }
      case Op::kReport: {
        std::vector<restune::EvaluationReport> reports(n);
        for (size_t i = 0; i < n; ++i) {
          (void)restune::DecodeReportEvaluationRequest(items[i].first->payload,
                                                       &rid, &reports[i]);
        }
        cost[k].wire_server_us = PerItemUs(n, [&](size_t i) {
          restune::EvaluationReport report;
          (void)restune::DecodeReportEvaluationRequest(items[i].first->payload,
                                                       &rid, &report);
          sink += restune::EncodeReportEvaluationResponse(rid).size();
        });
        cost[k].wire_client_us = PerItemUs(n, [&](size_t i) {
          sink += restune::EncodeReportEvaluationRequest(rid, reports[i]).size();
          (void)restune::DecodeReportEvaluationResponse(items[i].second.payload,
                                                        &rid);
        });
        break;
      }
      case Op::kFinish: {
        std::vector<uint64_t> sids(n);
        std::vector<SessionSummary> summaries(n);
        for (size_t i = 0; i < n; ++i) {
          (void)restune::DecodeFinishSessionRequest(items[i].first->payload,
                                                    &rid, &sids[i]);
          (void)restune::DecodeFinishSessionResponse(items[i].second.payload,
                                                     &rid, &summaries[i]);
        }
        cost[k].wire_server_us = PerItemUs(n, [&](size_t i) {
          uint64_t sid = 0;
          (void)restune::DecodeFinishSessionRequest(items[i].first->payload,
                                                    &rid, &sid);
          sink += restune::EncodeFinishSessionResponse(rid, summaries[i]).size();
        });
        cost[k].wire_client_us = PerItemUs(n, [&](size_t i) {
          SessionSummary summary;
          sink += restune::EncodeFinishSessionRequest(rid, sids[i]).size();
          (void)restune::DecodeFinishSessionResponse(items[i].second.payload,
                                                     &rid, &summary);
        });
        break;
      }
    }
  }
  if (sink == 0) std::printf("(codec sample was empty)\n");
  return cost;
}

/// The same session, untraced (phase A) and traced (phase B), must issue
/// the same θ sequence and reach the same best feasible res.
void CompareRuns(const std::vector<SessionOutcome>& untraced,
                 const std::vector<SessionOutcome>& traced,
                 std::vector<std::string>* problems) {
  std::map<uint64_t, const SessionOutcome*> by_index;
  for (const SessionOutcome& s : untraced) by_index[s.index] = &s;
  size_t sessions = 0;
  size_t rounds = 0;
  for (const SessionOutcome& t : traced) {
    const auto it = by_index.find(t.index);
    if (it == by_index.end()) continue;
    const SessionOutcome& u = *it->second;
    const size_t n = std::min(t.thetas.size(), u.thetas.size());
    for (size_t i = 0; i < n; ++i) {
      if (!BitwiseEqual(t.thetas[i], u.thetas[i])) {
        problems->push_back("session " + std::to_string(t.index) +
                            " diverged traced vs untraced at iteration " +
                            std::to_string(i + 1));
        return;
      }
    }
    if (t.rounds == u.rounds && t.server_best_res != u.server_best_res) {
      problems->push_back("session " + std::to_string(t.index) +
                          " best res differs traced vs untraced");
      return;
    }
    ++sessions;
    rounds += n;
  }
  if (sessions == 0) {
    problems->push_back("traced and untraced runs share no session");
    return;
  }
  std::printf("traced vs untraced: %zu sessions, %zu rounds, identical\n",
              sessions, rounds);
}

/// In-process replicas of the workload's sessions: same learners,
/// meta-feature, options, seeds and evaluations as on the server, and the
/// same threading as a wire handler.
struct ReplicaStats {
  std::vector<double> suggest_us;
  std::vector<double> observe_us;
  /// The same timings by iteration (index = iteration - 1).
  std::vector<std::vector<double>> suggest_by_iteration;
  std::vector<std::vector<double>> observe_by_iteration;
  double predict_it10_us = 0.0;
  double predict_it40_us = 0.0;
  double fit_it10_us = 0.0;
  double fit_it40_us = 0.0;
  double train_cold_us = 0.0;
  double train_warm_us = 0.0;
};

constexpr size_t kMinReplicaSamples = 120;
/// Client threads of phase C, whose excess over phase D's one thread is
/// the lock-wait estimate.
constexpr size_t kContendedThreads = 4;
/// Sessions phase C's start probe opens; a valid median needs 20.
constexpr size_t kProbeSessions = 24;

/// Runs `fn` the way WireLoop runs a request handler: as one index of a
/// pool loop, where the advisor's own parallel loops run inline on the
/// calling thread (ThreadPool does not nest).
void AsServed(const std::function<void()>& fn) {
  restune::ThreadPool::Shared()->ParallelFor(2, [&](size_t i) {
    if (i == 0) fn();
  });
}

/// Median time of `reps` calls of `fn`.
template <typename Fn>
double MedianUs(int reps, Fn fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    t.push_back(UsSince(start));
  }
  return Median(t);
}

/// Replays session `index` for `rounds` iterations, adding to `stats`
/// the timings of its first `timed_rounds`; session 0 also takes the
/// iteration-10 and -40 probes.
void ReplicateSession(const WorkloadSpec& spec, const Knowledge& knowledge,
                      uint64_t seed, uint64_t index, int rounds,
                      int timed_rounds,
                      const std::vector<restune::BaseLearner>& learners,
                      const SessionOutcome* served, ReplicaStats* stats,
                      std::vector<std::string>* problems) {
  const restune::ResTuneAdvisorOptions options =
      MakeServerOptions(spec, "").advisor;
  const size_t dim = TenantKnobSpace(spec).dim();
  Blueprint bp = MakeBlueprint(spec, knowledge, seed, index);
  restune::ResTuneAdvisor advisor(dim, bp.submission.default_theta, learners,
                                  bp.submission.meta_feature, options);
  const Status begun = advisor.Begin(bp.submission.default_observation, bp.sla);
  if (!begun.ok()) throw MetricError("replica: " + begun.ToString());
  for (int it = 1; it <= rounds; ++it) {
    Clock::time_point t = Clock::now();
    Result<Vector> theta = advisor.SuggestNextAsync({});
    const double suggest = UsSince(t);
    if (!theta.ok()) throw MetricError("replica: " + theta.status().ToString());
    // The event-session ladder can clamp server suggestions, so only
    // plain sessions must match the server bit for bit.
    if (!spec.event_sessions && served != nullptr &&
        static_cast<size_t>(it) <= served->thetas.size() &&
        !BitwiseEqual(*theta, served->thetas[it - 1])) {
      problems->push_back("replica of session " + std::to_string(index) +
                          " diverged from the server at iteration " +
                          std::to_string(it));
    }
    Result<restune::Observation> obs = bp.sim->Evaluate(*theta);
    if (!obs.ok()) throw MetricError("replica: " + obs.status().ToString());
    const restune::FaultKind fault = RoundFault(spec, seed, index, it);
    t = Clock::now();
    Status observed;
    if (fault != restune::FaultKind::kNone) {
      restune::EvaluationFault f;
      f.kind = fault;
      observed = advisor.ObserveFailure(*theta, f);
    } else {
      observed = advisor.Observe(*obs);
    }
    const double observe = UsSince(t);
    if (!observed.ok()) throw MetricError("replica: " + observed.ToString());
    if (it <= timed_rounds) {
      stats->suggest_us.push_back(suggest);
      stats->observe_us.push_back(observe);
      const auto slot = static_cast<size_t>(it - 1);
      if (stats->suggest_by_iteration.size() <= slot) {
        stats->suggest_by_iteration.resize(slot + 1);
        stats->observe_by_iteration.resize(slot + 1);
      }
      stats->suggest_by_iteration[slot].push_back(suggest);
      stats->observe_by_iteration[slot].push_back(observe);
    }
    if (index == 0 && (it == 10 || it == 40)) {
      // A sweep-sized candidate block through the ensemble, and a refit of
      // the target GP on the history so far.
      const auto rows =
          static_cast<size_t>(std::max(options.acq_optimizer.num_candidates, 1));
      restune::Matrix block(rows, dim);
      SplitMix rng(MixSeed(seed, it));
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < dim; ++c) block(r, c) = rng.Uniform();
      }
      const restune::MetaLearner& meta = advisor.meta_learner();
      const double predict = MedianUs(5, [&] {
        (void)meta.PredictMetricBatch(restune::MetricKind::kRes, block);
      });
      const double fit = MedianUs(3, [&] {
        restune::MultiOutputGp gp(dim, options.meta.target_gp);
        (void)gp.Fit(meta.target_observations());
      });
      (it == 10 ? stats->predict_it10_us : stats->predict_it40_us) = predict;
      (it == 10 ? stats->fit_it10_us : stats->fit_it40_us) = fit;
    }
  }
}

ReplicaStats RunReplicas(const WorkloadSpec& spec, const Knowledge& knowledge,
                         uint64_t seed,
                         const std::vector<SessionOutcome>& server_sessions,
                         std::vector<std::string>* problems) {
  ReplicaStats stats;
  const size_t dim = TenantKnobSpace(spec).dim();
  DataRepository repository;
  for (const restune::TuningTask& task : knowledge.tasks) {
    (void)repository.AddTask(task);
  }
  // The server's filter (ResTuneServer::TrainSessionLearners) over the
  // repository as set up.
  const auto keep = [dim](const restune::TuningTask& t) {
    return !t.observations.empty() && t.observations[0].theta.size() == dim;
  };
  restune::BaseLearnerCache::Global()->Clear();
  Clock::time_point t = Clock::now();
  const std::vector<restune::BaseLearner> learners =
      repository.TrainBaseLearners(keep);
  stats.train_cold_us = UsSince(t);
  t = Clock::now();
  (void)repository.TrainBaseLearners(keep);
  stats.train_warm_us = UsSince(t);

  std::map<uint64_t, const SessionOutcome*> served;
  for (const SessionOutcome& s : server_sessions) served[s.index] = &s;
  const int length = spec.rounds_per_session;
  std::exception_ptr failure;
  AsServed([&] {
    try {
      for (uint64_t g = 0; stats.suggest_us.size() < kMinReplicaSamples; ++g) {
        const auto it = served.find(g);
        // Session 0 runs on to iteration 40 for the probes.
        ReplicateSession(spec, knowledge, seed, g,
                         g == 0 ? std::max(length, 40) : length, length,
                         learners, it == served.end() ? nullptr : it->second,
                         &stats, problems);
      }
    } catch (...) {
      failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
  return stats;
}

/// Mean replica time per round over the rounds `sessions` drove, each
/// round weighted by its iteration: later iterations fit larger GPs.
double IterationWeightedUs(const std::vector<std::vector<double>>& by_iteration,
                           const std::vector<SessionOutcome>& sessions) {
  double total = 0.0;
  size_t rounds = 0;
  for (const SessionOutcome& s : sessions) {
    for (int it = 1; it <= s.rounds; ++it) {
      const auto slot = static_cast<size_t>(it - 1);
      if (slot >= by_iteration.size()) continue;
      total += Mean(by_iteration[slot]);
      ++rounds;
    }
  }
  return rounds > 0 ? total / static_cast<double>(rounds) : 0.0;
}

/// Folds a phase's run and drain into the run's checks and op counts.
void Account(const Samples& run, const Samples& drained,
             std::vector<std::string>* problems, OpCounts* ops) {
  for (const Samples* s : {&run, &drained}) {
    CheckSessions(*s, problems);
    ops->Merge(s->ops);
  }
}

std::vector<SessionOutcome> Sessions(const Samples& run,
                                     const Samples& drained) {
  std::vector<SessionOutcome> all = run.sessions;
  all.insert(all.end(), drained.sessions.begin(), drained.sessions.end());
  return all;
}

}  // namespace

std::vector<Metric> RunTraced(const WorkloadSpec& spec, uint64_t seed,
                              double seconds, const std::string& tmp_dir,
                              std::vector<std::string>* problems,
                              OpCounts* ops) {
  // Phases B and C need 100 Recommend samples for a valid p90 on the
  // slowest workload (fleet-checkpoint, about 8 rounds/s).
  const double wire_s = 0.4 * seconds;
  const double direct4_s = 0.4 * seconds;
  const double direct1_s = 0.1 * seconds;

  // A: untraced wire run.
  std::unique_ptr<Environment> env =
      Environment::Create(spec, seed, Transport::kWire, tmp_dir);
  const Samples a = env->Run(wire_s);
  const Samples a_drained = env->Drain(false);
  Account(a, a_drained, problems, ops);
  env.reset();

  // B: traced wire run.
  env = Environment::Create(spec, seed, Transport::kTracedWire, tmp_dir);
  CheckpointSamples ckpt;
  const std::string ckpt_path = tmp_dir + "/sample.ckpt";
  SampleCheckpoint(env->server(), ckpt_path, &ckpt);
  const std::map<std::string, int64_t> before = CounterValues();
  const Samples b =
      env->Run(wire_s, [&] { SampleCheckpoint(env->server(), ckpt_path, &ckpt); });
  const std::map<std::string, int64_t> after = CounterValues();
  SampleCheckpoint(env->server(), ckpt_path, &ckpt);
  const Samples b_drained = env->Drain(false);
  Account(b, b_drained, problems, ops);
  const WireSplit split = SplitCalls(b, env->handler_log(), problems);
  const std::array<CodecCost, kNumOps> codec =
      TimeCodecs(env->handler_log().TakeSample());
  env.reset();
  const std::vector<SessionOutcome> b_sessions = Sessions(b, b_drained);
  CompareRuns(Sessions(a, a_drained), b_sessions, problems);

  // C and D: the same workload straight into ResTuneServer.
  env = Environment::Create(spec, seed, Transport::kDirect, tmp_dir,
                            kContendedThreads);
  const std::map<std::string, int64_t> c_before = CounterValues();
  const Samples c = env->Run(direct4_s);
  const Samples c_drained = env->Drain(false);
  const Samples c_probe = env->StartProbe(kProbeSessions);
  const std::map<std::string, int64_t> c_after = CounterValues();
  Account(c, c_drained, problems, ops);
  Account(c_probe, Samples(), problems, ops);
  env.reset();
  env = Environment::Create(spec, seed, Transport::kDirect, tmp_dir, 1);
  const Samples d = env->Run(direct1_s);
  const Samples d_drained = env->Drain(false);
  Account(d, d_drained, problems, ops);
  const Knowledge knowledge = env->knowledge();
  env.reset();

  const ReplicaStats replica =
      RunReplicas(spec, knowledge, seed, b_sessions, problems);

  // ---- metrics ----
  const uint64_t rounds = b.rounds;
  const auto rec = static_cast<size_t>(Op::kRecommend);
  const auto delta = [&](const std::string& name) {
    return Delta(before, after, name);
  };
  double calls = 0.0;
  double frame_us = 0.0;
  double wire_us = 0.0;
  for (size_t k = 0; k < kNumOps; ++k) {
    const auto n = static_cast<double>(split.rtt_us[k].size());
    calls += n;
    frame_us += n * codec[k].frame_us;
    wire_us += n * (codec[k].wire_client_us + codec[k].wire_server_us);
  }
  const int period = MakeServerOptions(spec, "").checkpoint_period;
  const double checkpoints_per_round =
      spec.checkpoint_period > 0
          ? static_cast<double>(b.mutations) / period / std::max<uint64_t>(rounds, 1)
          : 0.0;
  const double checkpoint_bytes = Mean(ckpt.bytes);
  // Over phase C, whose start probe guarantees session starts.
  const int64_t hits =
      Delta(c_before, c_after, "restune_meta_base_learner_cache_hits_total");
  const int64_t misses =
      Delta(c_before, c_after, "restune_meta_base_learner_cache_misses_total");
  const double fresh = static_cast<double>(std::max<uint64_t>(b.fresh_recommends, 1));
  const double rps_a = RoundsPerS(a, wire_s);
  const double rps_b = RoundsPerS(b, wire_s);
  // Tracing overhead on the mean client round trip: in a closed loop it is
  // the throughput loss, in an open loop (fixed rate) the latency added.
  const auto mean_rtt = [](const Samples& s) {
    return (Mean(s.recommend_ms) * static_cast<double>(s.recommend_ms.size()) +
            Mean(s.report_ms) * static_cast<double>(s.report_ms.size())) /
           static_cast<double>(s.recommend_ms.size() + s.report_ms.size());
  };
  const double rtt_a = mean_rtt(a);
  const double rtt_b = mean_rtt(b);
  // Means, not medians: an unfair mutex lets one thread run a whole
  // session while the others starve, which moves the mean and the tail
  // but not the median.
  const double lock_wait_us = 1e3 * (Mean(c.recommend_ms) - Mean(d.recommend_ms));

  std::vector<Metric> m = {
      {"net.transport_us_p50", ValidPercentile(split.transport_us[rec], 50, "transport"), "us"},
      {"net.transport_us_p90", ValidPercentile(split.transport_us[rec], 90, "transport"), "us"},
      {"net.frame_codec_us", calls > 0 ? frame_us / calls : 0.0, "us"},
      {"net.bytes_per_round",
       PerRound(delta("restune_net_bytes_rx_total") + delta("restune_net_bytes_tx_total"), rounds),
       "bytes"},
      {"net.frames_per_round",
       PerRound(delta("restune_net_frames_rx_total") + delta("restune_net_frames_tx_total"), rounds),
       "count"},
      {"service.handler_us_p50", ValidPercentile(split.handler_us[rec], 50, "handler"), "us"},
      {"service.handler_us_p90", ValidPercentile(split.handler_us[rec], 90, "handler"), "us"},
      {"service.wire_codec_us", calls > 0 ? wire_us / calls : 0.0, "us"},
      {"service.recommend_call_us_p50", ValidPercentile(c.recommend_ms, 50, "direct recommend") * 1e3, "us"},
      {"service.recommend_call_us_p90", ValidPercentile(c.recommend_ms, 90, "direct recommend") * 1e3, "us"},
      {"service.report_call_us_p50", ValidPercentile(c.report_ms, 50, "direct report") * 1e3, "us"},
      {"service.report_call_us_p90", ValidPercentile(c.report_ms, 90, "direct report") * 1e3, "us"},
      {"service.start_call_us_p50", ValidPercentile(c_probe.start_ms, 50, "direct start") * 1e3, "us"},
      {"service.recommend_call_c1_us_p50", ValidPercentile(d.recommend_ms, 50, "1-thread recommend") * 1e3, "us"},
      {"service.lock_wait_est_us", lock_wait_us, "us"},
      {"service.checkpoint_us", Median(ckpt.memory_us), "us"},
      {"service.checkpoint_file_us", Median(ckpt.file_us), "us"},
      {"service.checkpoint_bytes_start", ckpt.bytes.front(), "bytes"},
      {"service.checkpoint_bytes_end", ckpt.bytes.back(), "bytes"},
      {"service.checkpoint_bytes_per_round", checkpoints_per_round * checkpoint_bytes, "bytes"},
      {"service.checkpoints_per_round", checkpoints_per_round, "count"},
      {"tuner.suggest_us_p50", ValidPercentile(replica.suggest_us, 50, "suggest"), "us"},
      {"tuner.suggest_us_p90", ValidPercentile(replica.suggest_us, 90, "suggest"), "us"},
      {"tuner.observe_us_p50", ValidPercentile(replica.observe_us, 50, "observe"), "us"},
      {"tuner.observe_us_p90", ValidPercentile(replica.observe_us, 90, "observe"), "us"},
      {"meta.train_learners_cold_us", replica.train_cold_us, "us"},
      {"meta.train_learners_warm_us", replica.train_warm_us, "us"},
      {"meta.cache_hit_ratio",
       hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
       "ratio"},
      {"meta.predict_batch_it10_us", replica.predict_it10_us, "us"},
      {"meta.predict_batch_it40_us", replica.predict_it40_us, "us"},
      {"meta.weight_recomputes_per_round", PerRound(delta("restune_meta_weight_recomputes_total"), rounds), "count"},
      {"gp.fit_it10_us", replica.fit_it10_us, "us"},
      {"gp.fit_it40_us", replica.fit_it40_us, "us"},
      {"gp.fits_per_round", PerRound(delta("restune_gp_fits_total"), rounds), "count"},
      {"gp.hyperopts_per_round", PerRound(delta("restune_gp_hyperopts_total"), rounds), "count"},
      {"gp.predict_points_per_round", PerRound(delta("restune_gp_predict_points_total"), rounds), "count"},
      {"bo.candidates_per_suggest", delta("restune_acq_candidates_total") / fresh, "count"},
      {"bo.cei_evals_per_suggest", delta("restune_acq_cei_evaluations_total") / fresh, "count"},
      {"bo.rejected_per_suggest", delta("restune_acq_rejected_total") / fresh, "count"},
      {"pool.loops_per_round", PerRound(delta("restune_pool_loops_total"), rounds), "count"},
      {"pool.chunks_per_round", PerRound(delta("restune_pool_chunks_total"), rounds), "count"},
      {"pool.inline_loops_per_round", PerRound(delta("restune_pool_inline_loops_total"), rounds), "count"},
      {"dbsim.evaluate_us", ValidPercentile(b.evaluate_us, 50, "evaluate"), "us"},
      {"trace.overhead_pct", (rtt_b - rtt_a) / rtt_a * 100.0, "%"},
  };

  // ---- layer accounting: where the client-observed time goes ----
  // Means add up where percentiles do not, so the split is of means.
  std::printf(
      "untraced vs traced: %.3f vs %.3f rounds/s, mean rtt %.4f vs %.4f ms "
      "(n=%ju, %ju rounds)\n",
      rps_a, rps_b, rtt_a, rtt_b, static_cast<uintmax_t>(a.rounds),
      static_cast<uintmax_t>(rounds));
  const double checkpoint_file_us = Median(ckpt.file_us);
  // The tuner's cost per fresh call over the iterations phase B served.
  const double suggest_us =
      IterationWeightedUs(replica.suggest_by_iteration, b_sessions);
  const double observe_us =
      IterationWeightedUs(replica.observe_by_iteration, b_sessions);
  for (const Op op : {Op::kRecommend, Op::kReport}) {
    const auto k = static_cast<size_t>(op);
    const bool is_rec = op == Op::kRecommend;
    const double n_calls = static_cast<double>(split.rtt_us[k].size());
    // Retried calls reach neither the tuner nor the checkpoint.
    const double fresh_share =
        n_calls > 0 ? static_cast<double>(is_rec ? b.fresh_recommends
                                                 : b.fresh_reports) /
                          n_calls
                    : 0.0;
    const double rtt = Mean(split.rtt_us[k]);
    const double handler = Mean(split.handler_us[k]);
    const double loop =
        rtt - handler - codec[k].frame_us - codec[k].wire_client_us;
    const double wire = codec[k].wire_client_us + codec[k].wire_server_us;
    const double tuner = fresh_share * (is_rec ? suggest_us : observe_us);
    const double checkpoint =
        spec.checkpoint_period > 0 ? fresh_share / period * checkpoint_file_us : 0.0;
    const double residual = handler - codec[k].wire_server_us - tuner - checkpoint;
    const auto pct = [rtt](double x) { return rtt > 0 ? 100.0 * x / rtt : 0.0; };
    std::printf(
        "accounting %s: mean rtt %.1f us (n=%.0f) = net.loop %.1f (%.0f%%) + "
        "net.frame_codec %.1f (%.0f%%) + service.wire_codec %.1f (%.0f%%) + "
        "tuner.%s %.1f (%.0f%%) + service.checkpoint %.1f (%.0f%%) + "
        "residual %.1f (%.0f%%)\n",
        OpName(op), rtt, n_calls, loop, pct(loop), codec[k].frame_us,
        pct(codec[k].frame_us), wire, pct(wire), is_rec ? "suggest" : "observe",
        tuner, pct(tuner), checkpoint, pct(checkpoint), residual,
        pct(residual));
  }
  std::printf(
      "  net.loop = poll, waiting for the tick's other shards, socket I/O; "
      "residual = ResTuneServer outside the tuner: mu_ wait and hold, "
      "session map, safety ladder. Direct-call lock-wait estimate: %.1f us "
      "per recommend.\n",
      lock_wait_us);
  // One lock serializes the server: per round of wall time (1 /
  // rounds_per_s), the shares the lock spends in the tuner and in
  // checkpoints. In a saturated closed loop they add up to about 100%,
  // and each connection's round waits behind the others' rounds.
  const double wall_us_per_round = 1e6 / rps_b;
  const double tuner_us_per_round = suggest_us + observe_us;
  const double checkpoint_us_per_round = checkpoints_per_round * checkpoint_file_us;
  std::printf(
      "accounting round: wall time per round %.1f us; tuner.suggest + "
      "tuner.observe %.1f us (%.0f%%), service.checkpoint %.1f us (%.0f%%); "
      "client-observed Recommend + Report %.1f us over %zu connections\n",
      wall_us_per_round, tuner_us_per_round,
      100.0 * tuner_us_per_round / wall_us_per_round, checkpoint_us_per_round,
      100.0 * checkpoint_us_per_round / wall_us_per_round,
      Mean(split.rtt_us[rec]) + Mean(split.rtt_us[static_cast<size_t>(Op::kReport)]),
      spec.connections);
  std::printf(
      "tails (traced): recommend p50 %.1f us, p90 %.1f us; one file "
      "checkpoint %.1f us, %.3f per round; checkpoint bytes %.0f -> %.0f\n",
      ValidPercentile(split.rtt_us[rec], 50, "rtt"),
      ValidPercentile(split.rtt_us[rec], 90, "rtt"), checkpoint_file_us,
      checkpoints_per_round, ckpt.bytes.front(), ckpt.bytes.back());
  return m;
}

}  // namespace perfbench
