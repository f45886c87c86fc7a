#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/logging.h"
#include "gp/gp_serialization.h"
#include "service/restune_client.h"
#include "service/restune_server.h"
#include "tuner/harness.h"

namespace restune {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Logger::SetThreshold(LogLevel::kWarning);
    characterizer_ =
        std::make_unique<WorkloadCharacterizer>(TrainDefaultCharacterizer());
  }
  static void TearDownTestSuite() {
    characterizer_.reset();
  }
  static std::unique_ptr<WorkloadCharacterizer> characterizer_;

  DbInstanceSimulator MakeSim(uint64_t seed = 3) {
    SimulatorOptions options;
    options.seed = seed;
    return DbInstanceSimulator(CaseStudyKnobSpace(),
                               HardwareInstance('A').value(),
                               MakeWorkload(WorkloadKind::kTwitter).value(),
                               options);
  }
};

std::unique_ptr<WorkloadCharacterizer> ServiceTest::characterizer_;

TEST_F(ServiceTest, ClientPreparesCompleteSubmission) {
  DbInstanceSimulator sim = MakeSim();
  ResTuneClient client(&sim, characterizer_.get());
  const auto submission = client.PrepareSubmission();
  ASSERT_TRUE(submission.ok());
  EXPECT_EQ(submission->knob_dim, 3u);
  EXPECT_FALSE(submission->meta_feature.empty());
  EXPECT_GT(submission->default_observation.tps, 0.0);
  EXPECT_EQ(submission->resource, std::string("cpu"));
}

TEST_F(ServiceTest, FullClientServerTuningLoop) {
  DbInstanceSimulator sim = MakeSim(7);
  ResTuneClient client(&sim, characterizer_.get());
  ServerOptions server_options;
  server_options.min_observations_to_archive = 5;
  ResTuneServer server(server_options);

  const auto submission = client.PrepareSubmission();
  ASSERT_TRUE(submission.ok());
  const auto session = server.StartSession(*submission);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(server.active_sessions(), 1u);

  for (int iter = 0; iter < 15; ++iter) {
    const auto rec = server.Recommend(*session);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->theta.size(), 3u);
    const auto report = client.EvaluateRecommendation(*rec);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(server.ReportEvaluation(*report).ok());
  }

  const auto summary = server.FinishSession(*session);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->iterations, 15);
  EXPECT_LE(summary->best_feasible_res, submission->default_observation.res);
  EXPECT_TRUE(summary->archived_to_repository);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.repository_size(), 1u);
}

TEST_F(ServiceTest, SecondTenantBenefitsFromArchivedSession) {
  // Tenant 1 tunes from scratch; its session is archived. Tenant 2 (same
  // workload shape) starts with one base-learner available.
  ServerOptions options;
  options.min_observations_to_archive = 10;
  ResTuneServer server(options);

  DbInstanceSimulator sim1 = MakeSim(11);
  ResTuneClient client1(&sim1, characterizer_.get());
  const auto sub1 = client1.PrepareSubmission();
  ASSERT_TRUE(sub1.ok());
  const auto s1 = server.StartSession(*sub1);
  ASSERT_TRUE(s1.ok());
  for (int i = 0; i < 20; ++i) {
    const auto rec = server.Recommend(*s1);
    ASSERT_TRUE(rec.ok());
    const auto rep = client1.EvaluateRecommendation(*rec);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(server.ReportEvaluation(*rep).ok());
  }
  ASSERT_TRUE(server.FinishSession(*s1).ok());
  ASSERT_EQ(server.repository_size(), 1u);

  DbInstanceSimulator sim2 = MakeSim(13);
  ResTuneClient client2(&sim2, characterizer_.get());
  const auto sub2 = client2.PrepareSubmission();
  ASSERT_TRUE(sub2.ok());
  const auto s2 = server.StartSession(*sub2);
  ASSERT_TRUE(s2.ok());
  // With a matching archived task the first recommendations already come
  // from the meta-feature-weighted ensemble; within a few iterations the
  // session finds a configuration well below default.
  double best = sub2->default_observation.res;
  for (int i = 0; i < 8; ++i) {
    const auto rec = server.Recommend(*s2);
    ASSERT_TRUE(rec.ok());
    const auto rep = client2.EvaluateRecommendation(*rec);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(server.ReportEvaluation(*rep).ok());
    const SlaConstraints sla{sub2->default_observation.tps,
                             sub2->default_observation.lat};
    if (sla.IsFeasible(rep->observation, 0.05)) {
      best = std::min(best, rep->observation.res);
    }
  }
  EXPECT_LT(best, sub2->default_observation.res * 0.6);
  ASSERT_TRUE(server.FinishSession(*s2).ok());
}

TEST_F(ServiceTest, ServerValidatesSubmissionsAndSessions) {
  ResTuneServer server;
  TargetTaskSubmission bad;
  EXPECT_FALSE(server.StartSession(bad).ok());  // knob_dim == 0
  bad.knob_dim = 3;
  bad.default_theta = {0.5};  // wrong size
  EXPECT_FALSE(server.StartSession(bad).ok());

  EXPECT_FALSE(server.Recommend(999).ok());
  EvaluationReport report;
  report.session_id = 999;
  EXPECT_FALSE(server.ReportEvaluation(report).ok());
  EXPECT_FALSE(server.FinishSession(999).ok());
}

TEST_F(ServiceTest, ShortSessionsAreNotArchived) {
  ServerOptions options;
  options.min_observations_to_archive = 50;
  ResTuneServer server(options);
  DbInstanceSimulator sim = MakeSim(17);
  ResTuneClient client(&sim, characterizer_.get());
  const auto sub = client.PrepareSubmission();
  ASSERT_TRUE(sub.ok());
  const auto session = server.StartSession(*sub);
  ASSERT_TRUE(session.ok());
  const auto summary = server.FinishSession(*session);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->archived_to_repository);
  EXPECT_EQ(server.repository_size(), 0u);
}

// ------------------------------------------------------- GP serialization

TEST(GpSerializationTest, RoundTripPreservesPredictions) {
  Rng rng(5);
  GpOptions options;
  options.hyperopt_max_iters = 25;
  GpModel gp(3, options);
  Matrix x(20, 3);
  Vector y(20);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t c = 0; c < 3; ++c) x(i, c) = rng.Uniform();
    y[i] = 100.0 * x(i, 0) - 20.0 * x(i, 1) + 5.0 * x(i, 2);
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());

  std::stringstream stream;
  ASSERT_TRUE(SaveGpModel(gp, &stream).ok());
  const auto loaded = LoadGpModel(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Rng probe_rng(6);
  for (int i = 0; i < 20; ++i) {
    const Vector q = {probe_rng.Uniform(), probe_rng.Uniform(),
                      probe_rng.Uniform()};
    const GpPrediction a = gp.Predict(q);
    const GpPrediction b = loaded->Predict(q);
    EXPECT_NEAR(a.mean, b.mean, 1e-9);
    EXPECT_NEAR(a.variance, b.variance, 1e-9);
  }
  EXPECT_STREQ(loaded->kernel().name(), "matern52");
}

TEST(GpSerializationTest, MultiOutputRoundTrip) {
  Rng rng(9);
  std::vector<Observation> obs;
  for (int i = 0; i < 15; ++i) {
    Observation o;
    o.theta = {rng.Uniform(), rng.Uniform()};
    o.res = 10 * o.theta[0];
    o.tps = 1000 - 100 * o.theta[1];
    o.lat = 1 + o.theta[0] * o.theta[1];
    obs.push_back(o);
  }
  MultiOutputGp gp(2);
  ASSERT_TRUE(gp.Fit(obs).ok());
  ByteWriter writer;
  ASSERT_TRUE(WriteMultiOutputGp(&writer, gp).ok());
  ByteReader reader(writer.str());
  const auto loaded = ReadMultiOutputGp(&reader);
  ASSERT_TRUE(reader.ExpectEnd().ok());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Vector q = {0.4, 0.6};
  for (MetricKind kind : kAllMetricKinds) {
    EXPECT_NEAR(gp.Predict(kind, q).mean, loaded->Predict(kind, q).mean,
                1e-9);
  }
}

TEST(GpSerializationTest, RejectsUnfittedAndCorrupt) {
  GpModel gp(2);
  std::stringstream stream;
  EXPECT_FALSE(SaveGpModel(gp, &stream).ok());

  // An unknown kernel name inside an intact file.
  Rng rng(3);
  Matrix x(4, 2);
  Vector y(4);
  for (size_t i = 0; i < 4; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = x(i, 0);
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  ByteWriter payload;
  ASSERT_TRUE(WriteGpModel(&payload, gp).ok());
  std::string bytes = payload.Take();
  const size_t name_at = bytes.find("matern52");
  ASSERT_NE(name_at, std::string::npos);
  bytes.replace(name_at, 8, "warpwarp");
  std::stringstream unknown_kernel;
  ASSERT_TRUE(WriteSealed(FileKind::kGpModel, bytes, &unknown_kernel).ok());
  EXPECT_EQ(LoadGpModel(&unknown_kernel).status().code(),
            StatusCode::kNotFound);
}


TEST(GpSerializationTest, SquaredExponentialKernelRoundTrips) {
  Rng rng(11);
  GpOptions options;
  options.optimize_hyperparams = false;
  GpModel gp(std::make_unique<SquaredExponentialKernel>(2, 0.3, 2.0),
             options);
  Matrix x(10, 2);
  Vector y(10);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = x(i, 0) - x(i, 1);
  }
  ASSERT_TRUE(gp.Fit(x, y).ok());
  std::stringstream stream;
  ASSERT_TRUE(SaveGpModel(gp, &stream).ok());
  const auto loaded = LoadGpModel(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_STREQ(loaded->kernel().name(), "se");
  EXPECT_NEAR(loaded->Predict({0.5, 0.5}).mean, gp.Predict({0.5, 0.5}).mean,
              1e-9);
}

}  // namespace
}  // namespace restune
