#ifndef RESTUNE_META_TASK_H_
#define RESTUNE_META_TASK_H_

#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/status.h"
#include "gp/observation.h"

namespace restune {

/// The meta-data one historical tuning task contributes to the repository:
/// identification, the workload meta-feature, and the raw observation
/// history (paper Section 4, "Data Repository").
struct TuningTask {
  std::string name;
  /// Instance label ('A'..'F') — lets experiments hold out tasks by
  /// hardware (the paper's varying-hardware setting).
  std::string hardware;
  /// Workload name — lets experiments hold out tasks by workload (the
  /// varying-workloads setting).
  std::string workload;
  /// Embedding from workload characterization (Section 6.2).
  Vector meta_feature;
  /// Raw (unstandardized) observation history.
  std::vector<Observation> observations;
};

/// Binary codec (common/byte_codec.h), shared by the data repository file
/// and the server checkpoint. Every field round-trips exactly — names with
/// spaces and each observation's `internals` included.
void WriteTuningTask(ByteWriter* out, const TuningTask& task);
Status ReadTuningTask(ByteReader* in, TuningTask* task);

}  // namespace restune

#endif  // RESTUNE_META_TASK_H_
