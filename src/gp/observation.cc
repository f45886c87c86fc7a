#include "gp/observation.h"

namespace restune {

void WriteObservation(ByteWriter* out, const Observation& obs) {
  out->PutVector(obs.theta);
  out->PutF64(obs.res);
  out->PutF64(obs.tps);
  out->PutF64(obs.lat);
  out->PutVector(obs.internals);
}

Status ReadObservation(ByteReader* in, Observation* obs) {
  RESTUNE_RETURN_IF_ERROR(in->GetVector(&obs->theta));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&obs->res));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&obs->tps));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&obs->lat));
  return in->GetVector(&obs->internals);
}

void WriteSlaConstraints(ByteWriter* out, const SlaConstraints& sla) {
  out->PutF64(sla.min_tps);
  out->PutF64(sla.max_lat);
}

Status ReadSlaConstraints(ByteReader* in, SlaConstraints* sla) {
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&sla->min_tps));
  return in->GetF64(&sla->max_lat);
}

}  // namespace restune
