#ifndef RESTUNE_GP_OBSERVATION_H_
#define RESTUNE_GP_OBSERVATION_H_

#include <cstddef>
#include <vector>

#include "common/byte_codec.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace restune {

/// The three black-box outputs of a tuning evaluation (paper Section 5.1):
/// the resource metric being minimized, throughput, and P99 latency.
enum class MetricKind { kRes = 0, kTps = 1, kLat = 2 };

inline constexpr size_t kNumMetricKinds = 3;

/// All metric kinds, for iteration.
inline constexpr MetricKind kAllMetricKinds[] = {
    MetricKind::kRes, MetricKind::kTps, MetricKind::kLat};

const char* MetricKindName(MetricKind kind);

/// One tuning observation: a normalized configuration θ ∈ [0,1]^d and the
/// measured (f_res, f_tps, f_lat) — the four-tuple the paper's history set H
/// stores (Section 5.1).
struct Observation {
  Vector theta;
  double res = 0.0;
  double tps = 0.0;
  double lat = 0.0;
  /// DBMS internal metrics captured during the replay (hit ratio, lock
  /// waits, IOPS, ...). Consumed by the OtterTune baseline's workload
  /// mapping and by the CDBTune baseline's RL state; empty when the source
  /// does not provide them.
  Vector internals;

  double metric(MetricKind kind) const {
    switch (kind) {
      case MetricKind::kRes:
        return res;
      case MetricKind::kTps:
        return tps;
      case MetricKind::kLat:
        return lat;
    }
    return 0.0;
  }

  double& metric(MetricKind kind) {
    switch (kind) {
      case MetricKind::kRes:
        return res;
      case MetricKind::kTps:
        return tps;
      case MetricKind::kLat:
        return lat;
    }
    return res;
  }
};

/// SLA constraint thresholds (λ_tps lower bound, λ_lat upper bound).
struct SlaConstraints {
  double min_tps = 0.0;
  double max_lat = 0.0;

  /// True when the observation satisfies both constraints, with optional
  /// relative tolerance (the paper accepts 5% measurement deviation).
  bool IsFeasible(const Observation& obs, double tolerance = 0.0) const {
    return obs.tps >= min_tps * (1.0 - tolerance) &&
           obs.lat <= max_lat * (1.0 + tolerance);
  }
};

/// Binary codecs (common/byte_codec.h), shared by the wire messages, both
/// checkpoints and the data repository. All fields travel bit-exactly,
/// `internals` included.
void WriteObservation(ByteWriter* out, const Observation& obs);
Status ReadObservation(ByteReader* in, Observation* obs);
void WriteSlaConstraints(ByteWriter* out, const SlaConstraints& sla);
Status ReadSlaConstraints(ByteReader* in, SlaConstraints* sla);

}  // namespace restune

#endif  // RESTUNE_GP_OBSERVATION_H_
