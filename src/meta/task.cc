#include "meta/task.h"

namespace restune {

void WriteTuningTask(ByteWriter* out, const TuningTask& task) {
  out->PutString(task.name);
  out->PutString(task.hardware);
  out->PutString(task.workload);
  out->PutVector(task.meta_feature);
  out->PutU32(static_cast<uint32_t>(task.observations.size()));
  for (const Observation& obs : task.observations) WriteObservation(out, obs);
}

Status ReadTuningTask(ByteReader* in, TuningTask* task) {
  RESTUNE_RETURN_IF_ERROR(in->GetString(&task->name));
  RESTUNE_RETURN_IF_ERROR(in->GetString(&task->hardware));
  RESTUNE_RETURN_IF_ERROR(in->GetString(&task->workload));
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&task->meta_feature));
  // The smallest observation is two empty vectors and three doubles.
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in->GetCount(&count, 32));
  task->observations.resize(count);
  for (Observation& obs : task->observations) {
    RESTUNE_RETURN_IF_ERROR(ReadObservation(in, &obs));
  }
  return Status::OK();
}

}  // namespace restune
