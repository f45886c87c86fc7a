#ifndef RESTUNE_BO_ACQ_OPTIMIZER_H_
#define RESTUNE_BO_ACQ_OPTIMIZER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace restune {

class ThreadPool;

/// Options for the acquisition-function maximizer.
struct AcqOptimizerOptions {
  /// Size of the global random sweep over [0,1]^d.
  int num_candidates = 512;
  /// Number of top candidates refined by local coordinate search.
  int num_refine = 4;
  /// Stencil passes per refined candidate. Each pass scores the 2*dim
  /// coordinate stencil around the current point in one batch call and
  /// moves to the best improvement; the step halves after a pass that
  /// finds none.
  int refine_passes = 6;
  /// Initial refinement step, halved each pass.
  double initial_step = 0.1;
  /// Pool the acquisition's scoring runs on (null = shared pool): the pool
  /// the advisors hand to the batch acquisitions. The optimizer itself runs
  /// on the calling thread and makes one acquisition call for the sweep and
  /// one per refinement pass, so each call is at most one pool loop. The
  /// chosen candidate is bitwise identical for any pool size: candidates
  /// are drawn from `rng` before any scoring, a block's values do not
  /// depend on the blocks scored with it, and the final reduction runs in a
  /// fixed order.
  ThreadPool* pool = nullptr;
  /// Optional hard veto: candidates (and refinement stencil points) for
  /// which this returns true are scored -inf and can never win. Used for
  /// quarantined knob regions around configurations that crashed the DBMS.
  /// Must be pure; it runs on the calling thread.
  std::function<bool(const Vector&)> reject;
  /// Optional projection applied to every sampled candidate and every
  /// refinement stencil point before scoring. Unlike `reject` (which only
  /// vetoes), a projection *guarantees* the returned point satisfies the
  /// constraint — even when every candidate is vetoed the fallback winner
  /// has been projected. Used by the safety trust region to clamp the sweep
  /// into an L∞ box around the last known-safe configuration. Must be pure
  /// (no RNG draws — the debug state check below catches violations); it
  /// runs on the calling thread.
  std::function<Vector(const Vector&)> project;
};

/// Rows per block of the candidate sweep. A multiple of the triangular
/// solve's 64-column stripe and so of every SIMD lane group: each candidate
/// meets the same arithmetic in its block as in one unsplit batch.
inline constexpr size_t kAcquisitionBlockRows = 64;

/// Acquisition values for a list of candidate blocks: one value vector per
/// block, one value per row. Each block's values must be bitwise what
/// scoring that block alone gives, whatever else the call holds.
/// Implementations are expected to route through the surrogate's batch
/// prediction path (the `*ExpectedImprovementBatch` functions).
using BatchAcquisitionFn = std::function<std::vector<std::vector<double>>(
    const std::vector<Matrix>&)>;

/// Maximizes an acquisition function over the unit hypercube by a global
/// random sweep followed by local coordinate refinement of the best
/// candidates. This is the gradient-free counterpart of the multi-start
/// L-BFGS loop BO libraries use; coordinate steps suit the box-bounded,
/// axis-aligned knob space.
///
/// The sweep scores all `num_candidates` points with ONE acquisition call,
/// cut into `kAcquisitionBlockRows`-row blocks. The `num_refine` local
/// searches then advance in lockstep: each pass scores every search's
/// coordinate stencil, one block per search, in one more call.
///
/// A stencil block has 2*dim rows; rows 2k and 2k+1 step column k up and
/// down from the search's point and equal it bit for bit in every other
/// column (also after clamping, and after a `project` that maps each
/// coordinate on its own, like the trust region's box). `GpModel`
/// recognises this row order and fills the block's cross-covariance from
/// shared distance work, with the same bits; a block in another order
/// takes the general path and loses only the speed.
/// `restune_gp_stencil_blocks_total` counts the recognised blocks, and
/// bo_test pins that every refinement block of a GP-scored maximization is
/// one.
Vector MaximizeAcquisitionBatch(const BatchAcquisitionFn& acquisition,
                                size_t dim, Rng* rng,
                                const AcqOptimizerOptions& options = {});

}  // namespace restune

#endif  // RESTUNE_BO_ACQ_OPTIMIZER_H_
