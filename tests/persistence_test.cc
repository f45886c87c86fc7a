// Every durable file kind against corruption: the file envelope rejects
// each proper prefix and each single-bit flip of a real file with a typed
// error, the retired text formats are refused, and a seeded mutational
// fuzz drives every payload decoder beneath the CRC (the four persistence
// payloads and every wire message decoder) without a crash or an
// allocation sized by a claimed count rather than by the bytes present.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "common/rng.h"
#include "gp/gp_model.h"
#include "gp/gp_serialization.h"
#include "meta/data_repository.h"
#include "service/restune_server.h"
#include "service/wire.h"
#include "tuner/cbo_advisor.h"
#include "tuner/checkpoint.h"
#include "tuner/event_session.h"

// Allocation high-water mark of the code under test: every operator new in
// this binary records its size while tracking is on.
namespace {
std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once these inline into
// callers; here both sides are this file's malloc/free pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace restune {
namespace {

/// Largest single allocation made while `fn` runs.
size_t LargestAllocationDuring(const std::function<void()>& fn) {
  g_largest.store(0, std::memory_order_relaxed);
  g_tracking.store(true, std::memory_order_relaxed);
  fn();
  g_tracking.store(false, std::memory_order_relaxed);
  return g_largest.load(std::memory_order_relaxed);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/persistence_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Observation SyntheticObservation(const Vector& theta) {
  Observation obs;
  obs.theta = theta;
  obs.res = 1.0 + theta[0];
  obs.tps = 100.0 - 10.0 * theta[1];
  obs.lat = 5.0 + theta[1];
  obs.internals = {0.5, theta[0]};
  return obs;
}

TuningTask SyntheticTask(const std::string& name, uint64_t seed, int n) {
  Rng rng(seed);
  TuningTask task;
  task.name = name;
  task.hardware = "instance A";
  task.workload = "tpcc 100w";
  task.meta_feature = {0.3, 0.6};
  for (int i = 0; i < n; ++i) {
    task.observations.push_back(
        SyntheticObservation({rng.Uniform(), rng.Uniform()}));
  }
  return task;
}

// --- One real file of each kind, and the public loader that reads it.

std::string ServerCheckpointFile() {
  ResTuneServer server;
  EXPECT_TRUE(server.AddHistoricalTask(SyntheticTask("history", 5, 8)).ok());
  TargetTaskSubmission sub;
  sub.task_name = "tenant a";
  sub.meta_feature = {0.2, 0.4};
  sub.knob_dim = 2;
  sub.default_theta = {0.5, 0.5};
  sub.default_observation = SyntheticObservation(sub.default_theta);
  sub.resource = "cpu";
  const auto run = [&](int reports) {
    const auto session = server.StartSession(sub);
    EXPECT_TRUE(session.ok());
    for (int i = 0; i < reports; ++i) {
      const auto rec = server.Recommend(*session);
      EXPECT_TRUE(rec.ok());
      EvaluationReport report;
      report.session_id = *session;
      report.iteration = rec->iteration;
      report.observation = SyntheticObservation(rec->theta);
      if (i == 1) report.fault = FaultKind::kTimeout;
      EXPECT_TRUE(server.ReportEvaluation(report).ok());
    }
    return *session;
  };
  EXPECT_TRUE(server.FinishSession(run(3)).ok());
  EXPECT_TRUE(server.Recommend(run(2)).ok());  // left outstanding
  std::stringstream out;
  EXPECT_TRUE(server.SaveCheckpoint(&out).ok());
  return out.str();
}

Status LoadServerCheckpoint(const std::string& bytes) {
  ResTuneServer server;
  std::istringstream in(bytes);
  return server.LoadCheckpoint(&in);
}

std::string EventCheckpointFile() {
  const std::string path = TempPath("event.ckpt");
  EventSessionOptions options;
  options.max_iterations = 10;
  options.max_in_flight = 3;
  options.fault.checkpoint_path = path;
  options.fault.checkpoint_period = 100;
  options.halt_after_completions = 6;
  SimulatorOptions sim_options;
  sim_options.seed = 3;
  sim_options.faults.enabled = true;
  sim_options.faults.seed = 11;
  sim_options.faults.crash_prob = 0.1;
  sim_options.faults.transient_prob = 0.1;
  DbInstanceSimulator sim(CaseStudyKnobSpace(), HardwareInstance('A').value(),
                          MakeWorkload(WorkloadKind::kTwitter).value(),
                          sim_options);
  CboAdvisorOptions advisor_options;
  advisor_options.initial_lhs_samples = 4;
  CboAdvisor advisor("cbo", 3, advisor_options);
  EXPECT_TRUE(EventTuningSession(&sim, &advisor, options).Run().ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

Status LoadEventCheckpoint(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadEventSessionCheckpoint(&in).status();
}

std::string RepositoryFile() {
  DataRepository repo;
  EXPECT_TRUE(repo.AddTask(SyntheticTask("task one", 7, 6)).ok());
  EXPECT_TRUE(repo.AddTask(SyntheticTask("task two", 8, 5)).ok());
  const std::vector<BaseLearner> learners = repo.TrainAllBaseLearners();
  EXPECT_EQ(learners.size(), 2u);
  const std::string path = TempPath("repository.bin");
  EXPECT_TRUE(repo.SaveToFile(path, {learners.front()}).ok());
  const std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

Status LoadRepository(const std::string& bytes) {
  const std::string path = TempPath("repository_load.bin");
  WriteFile(path, bytes);
  DataRepository repo;
  const Status status = repo.LoadFromFile(path);
  std::remove(path.c_str());
  return status;
}

std::string GpModelFile() {
  Rng rng(13);
  Matrix x(6, 2);
  Vector y(6);
  for (size_t i = 0; i < 6; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = x(i, 0) - 2.0 * x(i, 1);
  }
  GpOptions options;
  options.hyperopt_max_iters = 10;
  GpModel model(2, options);
  EXPECT_TRUE(model.Fit(x, y).ok());
  std::stringstream out;
  EXPECT_TRUE(SaveGpModel(model, &out).ok());
  return out.str();
}

Status LoadGpModelBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadGpModel(&in).status();
}

struct FileCase {
  const char* name;
  FileKind kind;
  std::function<std::string()> build;
  std::function<Status(const std::string&)> load;
};

const std::vector<FileCase>& FileCases() {
  static const std::vector<FileCase> cases = {
      {"server checkpoint", FileKind::kServerCheckpoint, ServerCheckpointFile,
       LoadServerCheckpoint},
      {"event checkpoint", FileKind::kEventCheckpoint, EventCheckpointFile,
       LoadEventCheckpoint},
      {"repository", FileKind::kRepository, RepositoryFile, LoadRepository},
      {"gp model", FileKind::kGpModel, GpModelFile, LoadGpModelBytes},
  };
  return cases;
}

class PersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logger::SetThreshold(LogLevel::kError); }
};

/// What a flipped bit at `offset` must be reported as (the envelope layout
/// of common/byte_codec.h).
StatusCode ExpectedFlipCode(size_t offset) {
  // Version byte; then magic, kind and reserved bytes; then the length;
  // then the CRC field and the payload it covers.
  if (offset == 4) return StatusCode::kNotImplemented;
  if (offset < 8) return StatusCode::kInvalidArgument;
  if (offset < 16) return StatusCode::kOutOfRange;
  return StatusCode::kIoError;
}

void SweepPrefixesAndBitFlips(const FileCase& c) {
  SCOPED_TRACE(c.name);
  const std::string bytes = c.build();
  ASSERT_GT(bytes.size(), kFileHeaderBytes);
  const Status intact = c.load(bytes);
  ASSERT_TRUE(intact.ok()) << intact.ToString();

  int mismatches = 0;
  for (size_t n = 0; n < bytes.size(); ++n) {
    const Status status = c.load(bytes.substr(0, n));
    if (status.code() != StatusCode::kOutOfRange && ++mismatches <= 5) {
      ADD_FAILURE() << "prefix of " << n << " bytes: " << status.ToString();
    }
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      const Status status = c.load(flipped);
      if (status.code() != ExpectedFlipCode(i) && ++mismatches <= 5) {
        ADD_FAILURE() << "bit " << bit << " of byte " << i << ": "
                      << status.ToString();
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST_F(PersistenceTest, ServerCheckpointRejectsEveryPrefixAndBitFlip) {
  SweepPrefixesAndBitFlips(FileCases()[0]);
}

TEST_F(PersistenceTest, EventCheckpointRejectsEveryPrefixAndBitFlip) {
  SweepPrefixesAndBitFlips(FileCases()[1]);
}

TEST_F(PersistenceTest, RepositoryRejectsEveryPrefixAndBitFlip) {
  SweepPrefixesAndBitFlips(FileCases()[2]);
}

TEST_F(PersistenceTest, GpModelRejectsEveryPrefixAndBitFlip) {
  SweepPrefixesAndBitFlips(FileCases()[3]);
}

TEST_F(PersistenceTest, MebibytePayloadRoundTripsThroughFileAndStream) {
  // Larger than any test checkpoint, with every byte value present.
  Rng rng(29);
  std::string payload((1 << 20) + 4099, '\0');
  for (char& c : payload) c = static_cast<char>(rng.NextUint64() & 0xff);
  const std::string path = TempPath("mebibyte");
  ASSERT_TRUE(SaveSealedFile(path, FileKind::kRepository, payload).ok());
  Result<std::string> loaded = LoadSealedFile(path, FileKind::kRepository);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value() == payload);
  EXPECT_EQ(LoadSealedFile(path, FileKind::kGpModel).status().code(),
            StatusCode::kInvalidArgument);

  // The same bytes through a stream, read from where the stream stands.
  const std::string sealed = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_EQ(sealed.size(), kFileHeaderBytes + payload.size());
  std::istringstream in("prefix" + sealed);
  in.ignore(6);
  Result<std::string> read = ReadSealed(FileKind::kRepository, &in);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value() == payload);

  // One byte short or one byte over disagrees with the stored length.
  std::istringstream short_in(sealed.substr(0, sealed.size() - 1));
  EXPECT_EQ(ReadSealed(FileKind::kRepository, &short_in).status().code(),
            StatusCode::kOutOfRange);
  std::istringstream long_in(sealed + "x");
  EXPECT_EQ(ReadSealed(FileKind::kRepository, &long_in).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PersistenceTest, RetiredTextFormatsAreRefusedNotParsed) {
  const char* const texts[] = {
      "restune-server-checkpoint 2\nnext_id 1\ntasks 0\nfinished 0\n"
      "sessions 0\nend\n",
      "restune-event-checkpoint 1\nlaunched 0\ncompleted 0\nclock 0\n",
      "task tpcc A tpcc\nmeta 0.5 0.5\nobs 0.5 0.5 | 1 2 3\nend\n",
      "gpmodel 2\nkernel matern52 0 0 0\noptions 0.001 1\ndata 1 2\n",
  };
  for (size_t k = 0; k < FileCases().size(); ++k) {
    SCOPED_TRACE(FileCases()[k].name);
    EXPECT_EQ(FileCases()[k].load(texts[k]).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ResTuneServer().LoadCheckpointFile(TempPath("missing")).code(),
            StatusCode::kNotFound);
}

// --- Payload fuzz, beneath the CRC.

using Decoder = std::function<Status(const std::string&)>;

/// One decoder under fuzz: a valid payload and the call that decodes it.
struct FuzzTarget {
  std::string name;
  std::string payload;
  Decoder decode;
};

std::vector<FuzzTarget> FuzzTargets() {
  std::vector<FuzzTarget> targets;
  const auto add = [&targets](std::string name, std::string payload,
                              Decoder decode) {
    targets.push_back({std::move(name), std::move(payload), std::move(decode)});
  };
  // The persistence payloads, resealed with a valid envelope so the
  // mutation reaches the payload decoder instead of the CRC check.
  for (const FileCase& c : FileCases()) {
    std::istringstream in(c.build());
    Result<std::string> payload = ReadSealed(c.kind, &in);
    EXPECT_TRUE(payload.ok()) << c.name;
    add(c.name, std::move(payload).value(),
        [kind = c.kind, load = c.load](const std::string& mutated) {
          std::stringstream sealed;
          EXPECT_TRUE(WriteSealed(kind, mutated, &sealed).ok());
          return load(sealed.str());
        });
  }

  TargetTaskSubmission sub;
  sub.task_name = "tenant";
  sub.meta_feature = {0.1, 0.2};
  sub.knob_dim = 2;
  sub.default_theta = {0.5, 0.5};
  sub.default_observation = SyntheticObservation(sub.default_theta);
  sub.resource = "cpu";
  KnobRecommendation rec;
  rec.session_id = 4;
  rec.iteration = 2;
  rec.theta = {0.25, 0.75};
  EvaluationReport report;
  report.session_id = 4;
  report.iteration = 2;
  report.observation = SyntheticObservation(rec.theta);
  SessionSummary summary;
  summary.session_id = 4;
  summary.iterations = 9;
  summary.best_theta = {0.1, 0.9};
  summary.best_feasible_res = 1.5;
  add("StartSessionRequest", EncodeStartSessionRequest(1, sub),
      [](const std::string& p) {
        uint64_t id = 0;
        TargetTaskSubmission out;
        return DecodeStartSessionRequest(p, &id, &out);
      });
  add("StartSessionResponse", EncodeStartSessionResponse(1, 2),
      [](const std::string& p) {
        uint64_t id = 0;
        uint64_t session = 0;
        return DecodeStartSessionResponse(p, &id, &session);
      });
  add("RecommendRequest", EncodeRecommendRequest(1, 2, 3),
      [](const std::string& p) {
        uint64_t id = 0;
        uint64_t session = 0;
        uint32_t width = 0;
        return DecodeRecommendRequest(p, &id, &session, &width);
      });
  add("RecommendResponse", EncodeRecommendResponse(1, {rec, rec, rec}),
      [](const std::string& p) {
        uint64_t id = 0;
        std::vector<KnobRecommendation> out;
        return DecodeRecommendResponse(p, &id, &out);
      });
  add("ReportEvaluationRequest", EncodeReportEvaluationRequest(1, report),
      [](const std::string& p) {
        uint64_t id = 0;
        EvaluationReport out;
        return DecodeReportEvaluationRequest(p, &id, &out);
      });
  add("ReportEvaluationResponse", EncodeReportEvaluationResponse(1),
      [](const std::string& p) {
        uint64_t id = 0;
        return DecodeReportEvaluationResponse(p, &id);
      });
  add("FinishSessionRequest", EncodeFinishSessionRequest(1, 2),
      [](const std::string& p) {
        uint64_t id = 0;
        uint64_t session = 0;
        return DecodeFinishSessionRequest(p, &id, &session);
      });
  add("FinishSessionResponse", EncodeFinishSessionResponse(1, summary),
      [](const std::string& p) {
        uint64_t id = 0;
        SessionSummary out;
        return DecodeFinishSessionResponse(p, &id, &out);
      });
  add("MetricsRequest", EncodeMetricsRequest(1), [](const std::string& p) {
    uint64_t id = 0;
    return DecodeMetricsRequest(p, &id);
  });
  add("MetricsResponse", EncodeMetricsResponse(1, "restune_x_total 3\n"),
      [](const std::string& p) {
        uint64_t id = 0;
        std::string text;
        return DecodeMetricsResponse(p, &id, &text);
      });
  add("ErrorResponse", EncodeErrorResponse(1, Status::NotFound("no session")),
      [](const std::string& p) {
        uint64_t id = 0;
        Status carried;
        return DecodeErrorResponse(p, &id, &carried);
      });
  add("PeekRequestId", EncodeMetricsRequest(1), [](const std::string& p) {
    uint64_t id = 0;
    return PeekRequestId(p, &id);
  });
  return targets;
}

std::string Mutate(const std::string& payload, Rng* rng) {
  std::string out = payload;
  switch (rng->NextUint64() % 5) {
    case 0: {  // a few bit flips
      const int flips = 1 + static_cast<int>(rng->NextUint64() % 4);
      for (int f = 0; f < flips && !out.empty(); ++f) {
        out[rng->NextUint64() % out.size()] ^=
            static_cast<char>(1 << (rng->NextUint64() % 8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng->NextUint64() % (out.size() + 1));
      break;
    case 2: {  // garbage
      out.resize(rng->NextUint64() % (2 * payload.size() + 1));
      for (char& c : out) c = static_cast<char>(rng->NextUint64() & 0xff);
      break;
    }
    case 3: {  // a tampered length or count field
      if (out.size() < 4) break;
      const uint32_t hostile[] = {0xFFFFFFFFu, 0x80000000u, 0x10000000u,
                                  static_cast<uint32_t>(out.size()),
                                  static_cast<uint32_t>(rng->NextUint64())};
      const uint32_t value = hostile[rng->NextUint64() % 5];
      const size_t at = rng->NextUint64() % (out.size() - 3);
      for (int i = 0; i < 4; ++i) {
        out[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
      }
      break;
    }
    default: {  // trailing bytes
      const size_t extra = 1 + rng->NextUint64() % 16;
      for (size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<char>(rng->NextUint64() & 0xff));
      }
      break;
    }
  }
  return out;
}

TEST_F(PersistenceTest, FuzzedPayloadsNeverCrashOrOverAllocate) {
  const std::vector<FuzzTarget> targets = FuzzTargets();
  Rng rng(20261017);
  for (int round = 0; round < 500; ++round) {
    const FuzzTarget& target = targets[rng.NextUint64() % targets.size()];
    const std::string mutated = Mutate(target.payload, &rng);
    Status status;
    const size_t largest = LargestAllocationDuring(
        [&] { status = target.decode(mutated); });
    const StatusCode code = status.code();
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange ||
                code == StatusCode::kNotFound ||
                code == StatusCode::kFailedPrecondition ||
                code == StatusCode::kNumericalError)
        << target.name << " round " << round << ": " << status.ToString();
    // Allocations scale with the bytes present, never with a claimed
    // count: a hostile uint32 count would ask for gigabytes.
    EXPECT_LE(largest, 64 * mutated.size() + (1u << 20))
        << target.name << " round " << round;
  }
}

}  // namespace
}  // namespace restune
