#include "tuner/checkpoint.h"

namespace restune {
namespace {

/// The observation travels only for successful evaluations.
void WriteOutcome(ByteWriter* out, const CompletionOutcome& outcome) {
  out->PutBool(outcome.failed);
  out->PutU8(static_cast<uint8_t>(outcome.fault));
  out->PutI64(outcome.attempts);
  out->PutF64(outcome.backoff_seconds);
  out->PutF64(outcome.elapsed_seconds);
  out->PutBool(outcome.watchdog_killed);
  if (!outcome.failed) WriteObservation(out, outcome.observation);
}

Status ReadOutcome(ByteReader* in, CompletionOutcome* outcome) {
  RESTUNE_RETURN_IF_ERROR(in->GetBool(&outcome->failed));
  RESTUNE_RETURN_IF_ERROR(
      in->GetEnum(&outcome->fault, FaultKind::kSlaViolation));
  int64_t attempts = 0;
  RESTUNE_RETURN_IF_ERROR(in->GetI64(&attempts));
  outcome->attempts = static_cast<int>(attempts);
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&outcome->backoff_seconds));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&outcome->elapsed_seconds));
  RESTUNE_RETURN_IF_ERROR(in->GetBool(&outcome->watchdog_killed));
  if (outcome->failed) return Status::OK();
  return ReadObservation(in, &outcome->observation);
}

void WriteInFlightRecord(ByteWriter* out, const InFlightRecord& record) {
  out->PutU64(record.seq);
  out->PutF64(record.delivery_seconds);
  WriteOutcome(out, record);
}

Status ReadInFlightRecord(ByteReader* in, InFlightRecord* record) {
  RESTUNE_RETURN_IF_ERROR(in->GetU64(&record->seq));
  RESTUNE_RETURN_IF_ERROR(in->GetF64(&record->delivery_seconds));
  return ReadOutcome(in, record);
}

void WriteRngState(ByteWriter* out, const RngState& state) {
  for (uint64_t word : state.s) out->PutU64(word);
  out->PutBool(state.has_cached_gaussian);
  out->PutF64(state.cached_gaussian);
}

Status ReadRngState(ByteReader* in, RngState* state) {
  for (uint64_t& word : state->s) RESTUNE_RETURN_IF_ERROR(in->GetU64(&word));
  RESTUNE_RETURN_IF_ERROR(in->GetBool(&state->has_cached_gaussian));
  return in->GetF64(&state->cached_gaussian);
}

Status DecodeEventSessionCheckpoint(std::string_view payload,
                                    EventSessionCheckpoint* checkpoint) {
  ByteReader in(payload);
  RESTUNE_RETURN_IF_ERROR(in.GetU64(&checkpoint->launched));
  int64_t completed = 0;
  RESTUNE_RETURN_IF_ERROR(in.GetI64(&completed));
  checkpoint->completed = static_cast<int>(completed);
  RESTUNE_RETURN_IF_ERROR(in.GetF64(&checkpoint->clock_seconds));
  RESTUNE_RETURN_IF_ERROR(
      ReadObservation(&in, &checkpoint->default_observation));
  RESTUNE_RETURN_IF_ERROR(ReadSlaConstraints(&in, &checkpoint->sla));
  DbInstanceSimulator::State& sim = checkpoint->simulator_state;
  RESTUNE_RETURN_IF_ERROR(in.GetU64(&sim.num_evaluations));
  RESTUNE_RETURN_IF_ERROR(in.GetF64(&sim.simulated_seconds));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(&in, &sim.rng));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(&in, &sim.fault_rng));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(&in, &checkpoint->supervisor_rng));
  // Counts are checked against the smallest encoding of their element: a
  // launch record (16 bytes), an in-flight failure (43), a metric (12).
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 16));
  checkpoint->records.resize(count);
  for (EventRecord& record : checkpoint->records) {
    RESTUNE_RETURN_IF_ERROR(ReadEventRecord(&in, &record));
  }
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 43));
  checkpoint->in_flight.resize(count);
  for (InFlightRecord& record : checkpoint->in_flight) {
    RESTUNE_RETURN_IF_ERROR(ReadInFlightRecord(&in, &record));
  }
  RESTUNE_RETURN_IF_ERROR(in.GetCount(&count, 12));
  checkpoint->metrics.resize(count);
  for (auto& [name, value] : checkpoint->metrics) {
    RESTUNE_RETURN_IF_ERROR(in.GetString(&name));
    RESTUNE_RETURN_IF_ERROR(in.GetI64(&value));
  }
  return in.ExpectEnd();
}

std::string EncodeEventSessionCheckpoint(
    const EventSessionCheckpoint& checkpoint) {
  ByteWriter out;
  out.PutU64(checkpoint.launched);
  out.PutI64(checkpoint.completed);
  out.PutF64(checkpoint.clock_seconds);
  WriteObservation(&out, checkpoint.default_observation);
  WriteSlaConstraints(&out, checkpoint.sla);
  const DbInstanceSimulator::State& sim = checkpoint.simulator_state;
  out.PutU64(sim.num_evaluations);
  out.PutF64(sim.simulated_seconds);
  WriteRngState(&out, sim.rng);
  WriteRngState(&out, sim.fault_rng);
  WriteRngState(&out, checkpoint.supervisor_rng);
  out.PutU32(static_cast<uint32_t>(checkpoint.records.size()));
  for (const EventRecord& record : checkpoint.records) {
    WriteEventRecord(&out, record);
  }
  out.PutU32(static_cast<uint32_t>(checkpoint.in_flight.size()));
  for (const InFlightRecord& record : checkpoint.in_flight) {
    WriteInFlightRecord(&out, record);
  }
  out.PutU32(static_cast<uint32_t>(checkpoint.metrics.size()));
  for (const auto& [name, value] : checkpoint.metrics) {
    out.PutString(name);
    out.PutI64(value);
  }
  return out.Take();
}

}  // namespace

void WriteEventRecord(ByteWriter* out, const EventRecord& record) {
  out->PutU8(static_cast<uint8_t>(record.kind));
  out->PutU64(record.seq);
  if (record.kind == EventKind::kLaunch) {
    out->PutVector(record.theta);
    out->PutBool(record.frozen);
    out->PutU8(static_cast<uint8_t>(record.mode));
    out->PutBool(record.sla_violated);
    return;
  }
  WriteOutcome(out, record);
  out->PutU8(static_cast<uint8_t>(record.mode_after));
  out->PutBool(record.sla_violated_after);
}

Status ReadEventRecord(ByteReader* in, EventRecord* record) {
  RESTUNE_RETURN_IF_ERROR(in->GetEnum(&record->kind, EventKind::kComplete));
  RESTUNE_RETURN_IF_ERROR(in->GetU64(&record->seq));
  if (record->kind == EventKind::kLaunch) {
    RESTUNE_RETURN_IF_ERROR(in->GetVector(&record->theta));
    RESTUNE_RETURN_IF_ERROR(in->GetBool(&record->frozen));
    RESTUNE_RETURN_IF_ERROR(in->GetEnum(&record->mode, SessionMode::kFrozen));
    return in->GetBool(&record->sla_violated);
  }
  RESTUNE_RETURN_IF_ERROR(ReadOutcome(in, record));
  RESTUNE_RETURN_IF_ERROR(
      in->GetEnum(&record->mode_after, SessionMode::kFrozen));
  return in->GetBool(&record->sla_violated_after);
}

Status SaveEventSessionCheckpoint(const EventSessionCheckpoint& checkpoint,
                                  std::ostream* out) {
  return WriteSealed(FileKind::kEventCheckpoint,
                     EncodeEventSessionCheckpoint(checkpoint), out);
}

Result<EventSessionCheckpoint> LoadEventSessionCheckpoint(std::istream* in) {
  RESTUNE_ASSIGN_OR_RETURN(const std::string payload,
                           ReadSealed(FileKind::kEventCheckpoint, in));
  EventSessionCheckpoint checkpoint;
  RESTUNE_RETURN_IF_ERROR(DecodeEventSessionCheckpoint(payload, &checkpoint));
  return checkpoint;
}

Status SaveEventSessionCheckpointFile(const EventSessionCheckpoint& checkpoint,
                                      const std::string& path) {
  return SaveSealedFile(path, FileKind::kEventCheckpoint,
                        EncodeEventSessionCheckpoint(checkpoint));
}

Result<EventSessionCheckpoint> LoadEventSessionCheckpointFile(
    const std::string& path) {
  RESTUNE_ASSIGN_OR_RETURN(const std::string payload,
                           LoadSealedFile(path, FileKind::kEventCheckpoint));
  EventSessionCheckpoint checkpoint;
  RESTUNE_RETURN_IF_ERROR(DecodeEventSessionCheckpoint(payload, &checkpoint));
  return checkpoint;
}

}  // namespace restune
