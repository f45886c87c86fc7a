#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bo/acquisition.h"
#include "bo/approx_surrogate.h"
#include "common/rng.h"
#include "dbsim/simulator.h"

namespace restune {
namespace {

// The tentpole's quality gate: at n=2000 history points, suggesting with
// the subset-of-data surrogate must land within 5% (true resource) of what
// the exact GP picks from the same candidate set. This is what licenses
// the O(m^3) approximation in long tuning sessions.
TEST(ApproxRegretTest, SubsetSurrogateMatchesExactCeiWithinFivePercent) {
  SimulatorOptions sim_options;
  sim_options.resource = ResourceKind::kCpu;
  sim_options.noise_std = 0.01;
  sim_options.seed = 1234;
  DbInstanceSimulator sim(CpuKnobSpace(), HardwareInstance('A').value(),
                          MakeWorkload(WorkloadKind::kTwitter).value(),
                          sim_options);
  const size_t d = sim.knob_space().dim();

  // SLA thresholds from the DBA-default configuration (paper Section 3).
  const Observation def = sim.EvaluateDefault().value();
  const SlaConstraints sla = DbInstanceSimulator::ConstraintsFromDefault(def);

  // n=2000 history: uniform random configurations with noisy evaluations.
  const size_t n = 2000;
  Rng rng(77);
  std::vector<Observation> history;
  history.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector theta(d);
    for (double& t : theta) t = rng.Uniform();
    history.push_back(sim.Evaluate(theta).value());
  }

  AcquisitionContext ctx;
  ctx.lambda_tps = sla.min_tps;
  ctx.lambda_lat = sla.max_lat;
  for (const Observation& obs : history) {
    if (!sla.IsFeasible(obs)) continue;
    if (!ctx.has_feasible || obs.res < ctx.best_feasible_res) {
      ctx.best_feasible_res = obs.res;
      ctx.has_feasible = true;
    }
  }
  ASSERT_TRUE(ctx.has_feasible)
      << "seeded history contains no feasible point; test setup is broken";

  // One fixed candidate set for both surrogates.
  Matrix candidates(256, d);
  for (size_t r = 0; r < 256; ++r) {
    for (size_t c = 0; c < d; ++c) candidates(r, c) = rng.Uniform();
  }

  GpOptions gp_options;
  gp_options.optimize_hyperparams = false;

  ScalableSurrogateOptions exact_options;
  exact_options.backend = SurrogateBackend::kExactGp;
  exact_options.gp = gp_options;
  ScalableSurrogate exact(d, exact_options);
  ASSERT_TRUE(exact.Fit(history).ok());

  ScalableSurrogateOptions approx_options;
  approx_options.backend = SurrogateBackend::kSubsetGp;
  approx_options.subset_size = 400;
  approx_options.gp = gp_options;
  ScalableSurrogate approx(d, approx_options);
  ASSERT_TRUE(approx.Fit(history).ok());
  ASSERT_EQ(approx.num_model_observations(), 400u);

  const std::vector<double> exact_scores =
      ConstrainedExpectedImprovementBatch(exact, {candidates}, ctx).front();
  const std::vector<double> approx_scores =
      ConstrainedExpectedImprovementBatch(approx, {candidates}, ctx).front();
  ASSERT_EQ(exact_scores.size(), candidates.rows());
  ASSERT_EQ(approx_scores.size(), candidates.rows());

  const auto argmax = [&](const std::vector<double>& scores) {
    return static_cast<size_t>(std::distance(
        scores.begin(), std::max_element(scores.begin(), scores.end())));
  };
  const size_t exact_pick = argmax(exact_scores);
  const size_t approx_pick = argmax(approx_scores);

  const auto row_theta = [&](size_t r) {
    Vector theta(d);
    for (size_t c = 0; c < d; ++c) theta[c] = candidates(r, c);
    return theta;
  };
  const double exact_res = sim.ResourceValue(
      sim.EvaluateExact(row_theta(exact_pick)).value());
  const double approx_res = sim.ResourceValue(
      sim.EvaluateExact(row_theta(approx_pick)).value());
  ASSERT_GT(exact_res, 0.0);
  ASSERT_GT(approx_res, 0.0);

  // The approximate pick's true resource must be within 5% of the exact
  // pick's (lower is better; strictly better is of course allowed).
  EXPECT_LE(approx_res, exact_res * 1.05)
      << "approx pick " << approx_pick << " (res " << approx_res
      << ") vs exact pick " << exact_pick << " (res " << exact_res << ")";
}

}  // namespace
}  // namespace restune
