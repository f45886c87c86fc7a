#include "bo/acq_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "bo/lhs.h"
#include "common/contracts.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace restune {

namespace {

struct Scored {
  Vector x;
  double value;
};

struct AcqMetrics {
  obs::Counter* sweeps;
  obs::Counter* candidates;
  obs::Counter* refined;
  obs::Counter* rejected;

  static AcqMetrics* Get() {
    static AcqMetrics* m = [] {
      auto* registry = obs::MetricsRegistry::Global();
      // restune-lint: allow(naked-new) -- intentional leak, handle cache
      auto* metrics = new AcqMetrics();
      metrics->sweeps = registry->GetCounter("restune_acq_sweeps_total");
      metrics->candidates =
          registry->GetCounter("restune_acq_candidates_total");
      metrics->refined = registry->GetCounter("restune_acq_refined_total");
      metrics->rejected = registry->GetCounter("restune_acq_rejected_total");
      return metrics;
    }();
    return m;
  }
};

/// One local coordinate search of the refinement stage.
struct Search {
  Scored current;
  double step;
};

/// Fails fast on a scored call that breaks the acquisition contract: one
/// value vector per block, one value per row, and no NaN. NaN never
/// compares greater, so a poisoned value would silently bias an argmax
/// toward whatever row happened to come first; the check names the
/// offending row instead. -inf is legal (it is how the reject hook and
/// degenerate EI mark dead candidates).
void CheckScores(const std::vector<Matrix>& blocks,
                 const std::vector<std::vector<double>>& scores,
                 const char* stage) {
  RESTUNE_CHECK(scores.size() == blocks.size())
      << "acquisition returned " << scores.size() << " value vectors for "
      << blocks.size() << " " << stage << " blocks";
  for (size_t b = 0; b < blocks.size(); ++b) {
    const Matrix& candidates = blocks[b];
    const std::vector<double>& values = scores[b];
    RESTUNE_CHECK(values.size() == candidates.rows())
        << "acquisition returned " << values.size() << " values for "
        << candidates.rows() << " rows of " << stage << " block " << b;
    for (size_t r = 0; r < values.size(); ++r) {
      RESTUNE_CHECK(!std::isnan(values[r]))
          << "acquisition value at row " << r << " of " << stage << " block "
          << b << " is NaN; the surrogate produced a non-finite prediction";
    }
  }
}

/// Writes the 2*dim coordinate stencil around `x` at `step`, each trial
/// point projected when a projection is set (a trust region pulls trial
/// points back inside its box, so the search never walks out of it). The
/// row order is recognised by GpModel (see MaximizeAcquisitionBatch).
void BuildStencil(const Vector& x, double step,
                  const AcqOptimizerOptions& options, Matrix* stencil) {
  const size_t dim = x.size();
  for (size_t d = 0; d < dim; ++d) {
    for (size_t c = 0; c < dim; ++c) {
      (*stencil)(2 * d, c) = x[c];
      (*stencil)(2 * d + 1, c) = x[c];
    }
    (*stencil)(2 * d, d) = std::clamp(x[d] + step, 0.0, 1.0);
    (*stencil)(2 * d + 1, d) = std::clamp(x[d] - step, 0.0, 1.0);
  }
  if (!options.project) return;
  for (size_t r = 0; r < stencil->rows(); ++r) {
    const Vector projected = options.project(stencil->Row(r));
    for (size_t c = 0; c < dim; ++c) (*stencil)(r, c) = projected[c];
  }
}

/// Moves `search` to the best improving trial of its scored stencil, or
/// halves its step when no trial improves, so a productive stride is
/// reused. Ties break on the lowest stencil row, keeping the search
/// deterministic.
void Advance(const Matrix& stencil, std::vector<double> values,
             const AcqOptimizerOptions& options, Search* search) {
  if (options.reject) {
    for (size_t r = 0; r < stencil.rows(); ++r) {
      if (options.reject(stencil.Row(r))) {
        values[r] = -std::numeric_limits<double>::infinity();
      }
    }
  }
  size_t best_row = stencil.rows();
  double best_value = search->current.value;
  for (size_t r = 0; r < stencil.rows(); ++r) {
    if (values[r] > best_value) {
      best_value = values[r];
      best_row = r;
    }
  }
  if (best_row == stencil.rows()) {
    search->step *= 0.5;
    return;
  }
  for (size_t c = 0; c < stencil.cols(); ++c) {
    search->current.x[c] = stencil(best_row, c);
  }
  search->current.value = best_value;
}

}  // namespace

Vector MaximizeAcquisitionBatch(const BatchAcquisitionFn& acquisition,
                                size_t dim, Rng* rng,
                                const AcqOptimizerOptions& options) {
  RESTUNE_TRACE_SPAN("acq.sweep");
  AcqMetrics* metrics = AcqMetrics::Get();
  metrics->sweeps->Add();
  // Candidates come from the caller's RNG before any scoring, so the
  // sampled sweep is independent of the pool size. At least one candidate
  // is always drawn — an empty sweep has no best point to return.
  // RNG-alignment contract: the reject hook must be a pure predicate. It
  // runs between the sampling above and any later draws, so a hook that
  // consumed `rng` would silently desynchronize serial and parallel sweeps
  // (and checkpoint replay); the state comparison below makes that fatal.
  const size_t num_candidates =
      static_cast<size_t>(std::max(1, options.num_candidates));
  std::vector<Vector> samples = UniformSample(num_candidates, dim, rng);
#ifndef NDEBUG
  const RngState rng_state_after_sampling = rng->state();
#endif
  if (options.project) {
    // Projection precedes rejection and scoring: the reject hook and the
    // acquisition both see the projected points, and even the unrefined
    // fallback winner (pool.front() below) lies inside the projected set.
    for (Vector& sample : samples) sample = options.project(sample);
  }
  // The sweep is cut into fixed-size blocks and scored in one call. This
  // is the only place candidates are cut into blocks.
  std::vector<Matrix> blocks;
  for (size_t begin = 0; begin < samples.size();
       begin += kAcquisitionBlockRows) {
    const size_t end =
        std::min(samples.size(), begin + kAcquisitionBlockRows);
    Matrix& block = blocks.emplace_back(end - begin, dim);
    for (size_t r = begin; r < end; ++r) {
      for (size_t c = 0; c < dim; ++c) block(r - begin, c) = samples[r][c];
    }
  }
  const std::vector<std::vector<double>> scores = acquisition(blocks);
  CheckScores(blocks, scores, "sweep");
  std::vector<double> values;
  values.reserve(samples.size());
  for (const std::vector<double>& block_values : scores) {
    values.insert(values.end(), block_values.begin(), block_values.end());
  }
  metrics->candidates->Add(static_cast<int64_t>(samples.size()));
  if (options.reject) {
    // Vetoed candidates keep their slot (the sweep stays aligned with the
    // RNG draw sequence) but can never be selected or refined upward.
    int64_t rejected = 0;
    for (size_t r = 0; r < samples.size(); ++r) {
      if (options.reject(samples[r])) {
        values[r] = -std::numeric_limits<double>::infinity();
        ++rejected;
      }
    }
    metrics->rejected->Add(rejected);
  }

  std::vector<Scored> pool;
  pool.reserve(samples.size());
  for (size_t r = 0; r < samples.size(); ++r) {
    pool.push_back({samples[r], values[r]});
  }
  const size_t refine_count = std::min<size_t>(
      pool.size(), static_cast<size_t>(std::max(0, options.num_refine)));
  // Sort at least one element even when nothing is refined, so pool.front()
  // below is always the sweep's best candidate rather than an arbitrary
  // random sample.
  const size_t sort_count = std::max<size_t>(1, refine_count);
  std::partial_sort(
      pool.begin(), pool.begin() + sort_count, pool.end(),
      [](const Scored& a, const Scored& b) { return a.value > b.value; });

  // The local searches advance in lockstep: each pass builds every
  // search's stencil, scores them as separate blocks in one call (never
  // stacked, so each keeps the bits of scoring it alone) and then moves or
  // halves each search. The winner is reduced in candidate order, so the
  // result matches searches run one after another exactly.
  metrics->refined->Add(static_cast<int64_t>(refine_count));
  std::vector<Search> searches;
  searches.reserve(refine_count);
  for (size_t c = 0; c < refine_count; ++c) {
    searches.push_back({pool[c], options.initial_step});
  }
  if (refine_count > 0) {
    RESTUNE_TRACE_SPAN("acq.refine");
    std::vector<Matrix> stencils(refine_count, Matrix(2 * dim, dim));
    for (int pass = 0; pass < options.refine_passes; ++pass) {
      for (size_t c = 0; c < refine_count; ++c) {
        BuildStencil(searches[c].current.x, searches[c].step, options,
                     &stencils[c]);
      }
      std::vector<std::vector<double>> stencil_scores = acquisition(stencils);
      CheckScores(stencils, stencil_scores, "stencil");
      for (size_t c = 0; c < refine_count; ++c) {
        Advance(stencils[c], std::move(stencil_scores[c]), options,
                &searches[c]);
      }
    }
  }

  Scored best = pool.front();
  for (const Search& search : searches) {
    if (search.current.value > best.value) best = search.current;
  }
#ifndef NDEBUG
  const RngState rng_state_now = rng->state();
  for (int w = 0; w < 4; ++w) {
    RESTUNE_DCHECK(rng_state_now.s[w] == rng_state_after_sampling.s[w])
        << "caller RNG advanced during acquisition maximization; the reject "
           "hook or acquisition function must not draw from the shared "
           "stream (breaks serial/parallel and replay determinism)";
  }
#endif
  return best.x;
}

}  // namespace restune
