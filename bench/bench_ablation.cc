// Ablation studies for the design choices DESIGN.md calls out:
//   A. CEI vs penalty-based EI vs unconstrained EI (constraint handling).
//   B. Variance from the target learner only (Eq. 7) vs weighted variance.
//   C. Static->dynamic weight switch point (0 / 10 / 25 iterations).
//   D. Weight-dilution guard on vs off.
// Each ablation tunes the Twitter case study (3 knobs, instance A) and
// reports the best feasible CPU plus the iteration where the common
// reference quality was reached.

#include <memory>

#include "bench/bench_common.h"
#include "common/contracts.h"
#include "tuner/cbo_advisor.h"
#include "tuner/restune_advisor.h"

using namespace restune;

namespace {

struct RunOutcome {
  double best = 0.0;
  int iters_to_ref = 0;
  double default_res = 0.0;
};

RunOutcome Summarize(const SessionResult& r, double reference) {
  RunOutcome out;
  out.best = r.best_feasible_res;
  out.default_res = r.default_observation.res;
  out.iters_to_ref = static_cast<int>(r.history.size());
  for (const IterationRecord& rec : r.history) {
    if (rec.best_feasible_res <= reference) {
      out.iters_to_ref = rec.iteration;
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::BenchSetup();
  bench::PrintHeader("Ablations (Twitter case study, 3 knobs, instance A)");

  const KnobSpace space = CaseStudyKnobSpace();
  ExperimentConfig config;
  config.iterations = BenchIterations(60);
  const WorkloadProfile target = MakeWorkload(WorkloadKind::kTwitter).value();
  const WorkloadCharacterizer characterizer = TrainDefaultCharacterizer();

  DataRepository repo;
  for (int v = 1; v <= 5; ++v) {
    RESTUNE_CHECK_OK(repo.AddTask(CollectHistoryTask(
        space, HardwareInstance('A').value(), TwitterVariation(v).value(),
        characterizer, config, 100)));
  }
  const std::vector<BaseLearner> learners = repo.TrainAllBaseLearners();
  const Vector meta_feature = ComputeMetaFeature(characterizer, target);

  // Reference quality: 25% CPU (comfortably reachable by all variants).
  const double kReference = 25.0;

  // ---- A. Constraint handling in plain CBO --------------------------------
  std::printf("\nA. Constraint handling (no meta-learning):\n");
  std::printf("%-28s %12s %14s %14s\n", "Acquisition", "best CPU",
              "iters<=25%", "SLA-violations");
  for (CboAcquisition acq :
       {CboAcquisition::kConstrainedEi, CboAcquisition::kPenalizedEi,
        CboAcquisition::kUnconstrainedEi}) {
    auto sim = MakeSimulator(space, 'A', target, config).value();
    CboAdvisorOptions options;
    options.acquisition = acq;
    options.seed = config.seed;
    CboAdvisor advisor(acq == CboAcquisition::kConstrainedEi ? "CEI"
                       : acq == CboAcquisition::kPenalizedEi ? "penalty-EI"
                                                             : "plain-EI",
                       space.dim(), options);
    EventSessionOptions so = SequentialSessionOptions();
    so.max_iterations = config.iterations;
    so.sla_tolerance = config.sla_tolerance;
    const auto result = EventTuningSession(&sim, &advisor, so).Run();
    if (!result.ok()) continue;
    int violations = 0;
    for (const IterationRecord& rec : result->history) {
      if (!rec.feasible) ++violations;
    }
    const RunOutcome o = Summarize(*result, kReference);
    std::printf("%-28s %11.1f%% %14d %14d\n", advisor.name().c_str(), o.best,
                o.iters_to_ref, violations);
  }

  // ---- B/C/D: meta-learner variants ---------------------------------------
  struct Variant {
    const char* label;
    ResTuneAdvisorOptions options;
  };
  std::vector<Variant> variants;
  {
    ResTuneAdvisorOptions base;
    base.seed = config.seed;
    Variant v{"ResTune (paper setting)", base};
    variants.push_back(v);

    Variant weighted_var{"variance: weighted ensemble", base};
    weighted_var.options.meta.target_variance_only = false;
    variants.push_back(weighted_var);

    Variant no_static{"static phase: 0 iters", base};
    no_static.options.meta.static_weight_iterations = 0;
    variants.push_back(no_static);

    Variant long_static{"static phase: 25 iters", base};
    long_static.options.meta.static_weight_iterations = 25;
    variants.push_back(long_static);

    Variant no_guard{"dilution guard: off", base};
    no_guard.options.meta.prune_worse_than_random = false;
    variants.push_back(no_guard);

    Variant lhs_init{"LHS init (w/o characterization)", base};
    lhs_init.options.workload_characterization_init = false;
    variants.push_back(lhs_init);
  }

  std::printf("\nB/C/D. Meta-learner variants:\n");
  std::printf("%-34s %12s %14s\n", "Variant", "best CPU", "iters<=25%");
  for (const Variant& variant : variants) {
    auto sim = MakeSimulator(space, 'A', target, config).value();
    ResTuneAdvisor advisor(space.dim(), space.DefaultTheta(), learners,
                           meta_feature, variant.options);
    EventSessionOptions so = SequentialSessionOptions();
    so.max_iterations = config.iterations;
    so.sla_tolerance = config.sla_tolerance;
    const auto result = EventTuningSession(&sim, &advisor, so).Run();
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", variant.label,
                   result.status().ToString().c_str());
      continue;
    }
    const RunOutcome o = Summarize(*result, kReference);
    std::printf("%-34s %11.1f%% %14d\n", variant.label, o.best,
                o.iters_to_ref);
  }
  std::printf(
      "\nExpected: CEI dominates penalty/plain EI on feasibility; the paper "
      "setting\n(static 10 iters, target-only variance, guard on) is at or "
      "near the front.\n");
  return 0;
}
