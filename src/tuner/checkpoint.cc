#include "tuner/checkpoint.h"

#include <cstdio>
#include <fstream>

namespace restune {
namespace {

constexpr const char* kEventMagic = "restune-event-checkpoint";
constexpr int kEventVersion = 1;

Status ReadSessionModeToken(std::istream* in, SessionMode* mode) {
  int raw = 0;
  if (!(*in >> raw) || raw < 0 || raw > static_cast<int>(SessionMode::kFrozen)) {
    return Status::IoError("bad session mode in checkpoint");
  }
  *mode = static_cast<SessionMode>(raw);
  return Status::OK();
}

Status ReadFaultKindToken(std::istream* in, FaultKind* kind) {
  int raw = 0;
  if (!(*in >> raw) || raw < 0 || raw >= static_cast<int>(kNumFaultKinds)) {
    return Status::IoError("bad fault kind in checkpoint");
  }
  *kind = static_cast<FaultKind>(raw);
  return Status::OK();
}

Status ExpectTag(std::istream* in, const std::string& want) {
  std::string tag;
  if (!(*in >> tag)) {
    return Status::IoError("checkpoint truncated: expected '" + want + "'");
  }
  if (tag != want) {
    return Status::IoError("checkpoint corrupt: expected '" + want +
                            "', found '" + tag + "'");
  }
  return Status::OK();
}

}  // namespace

void WriteRngState(std::ostream* out, const RngState& state) {
  for (uint64_t word : state.s) *out << word << ' ';
  *out << (state.has_cached_gaussian ? 1 : 0) << ' '
       << state.cached_gaussian << '\n';
}

Status ReadRngState(std::istream* in, RngState* state) {
  int has_cached = 0;
  for (uint64_t& word : state->s) {
    if (!(*in >> word)) return Status::IoError("bad rng state in checkpoint");
  }
  if (!(*in >> has_cached >> state->cached_gaussian)) {
    return Status::IoError("bad rng state in checkpoint");
  }
  state->has_cached_gaussian = has_cached != 0;
  return Status::OK();
}

void WriteVector(std::ostream* out, const Vector& v) {
  *out << v.size();
  for (double x : v) *out << ' ' << x;
  *out << '\n';
}

Status ReadVector(std::istream* in, Vector* v) {
  size_t n = 0;
  if (!(*in >> n)) return Status::IoError("bad vector in checkpoint");
  if (n > (1u << 24)) {
    return Status::IoError("implausible vector size in checkpoint");
  }
  v->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (!(*in >> (*v)[i])) return Status::IoError("bad vector in checkpoint");
  }
  return Status::OK();
}

void WriteObservation(std::ostream* out, const Observation& obs) {
  *out << obs.res << ' ' << obs.tps << ' ' << obs.lat << '\n';
  WriteVector(out, obs.theta);
  WriteVector(out, obs.internals);
}

Status ReadObservation(std::istream* in, Observation* obs) {
  if (!(*in >> obs->res >> obs->tps >> obs->lat)) {
    return Status::IoError("bad observation in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ReadVector(in, &obs->theta));
  return ReadVector(in, &obs->internals);
}

void WriteEventRecord(std::ostream* out, const EventRecord& record) {
  if (record.kind == EventKind::kLaunch) {
    *out << "launch " << record.seq << ' ' << (record.frozen ? 1 : 0) << ' '
         << static_cast<int>(record.mode) << ' '
         << (record.sla_violated ? 1 : 0) << '\n';
    *out << "theta ";
    WriteVector(out, record.theta);
    return;
  }
  *out << "complete " << record.seq << ' ' << (record.failed ? 1 : 0) << ' '
       << static_cast<int>(record.fault) << ' ' << record.attempts << ' '
       << record.backoff_seconds << ' ' << record.elapsed_seconds << ' '
       << (record.watchdog_killed ? 1 : 0) << ' '
       << static_cast<int>(record.mode_after) << ' '
       << (record.sla_violated_after ? 1 : 0) << '\n';
  if (!record.failed) {
    *out << "obs\n";
    WriteObservation(out, record.observation);
  }
}

Status ReadEventRecord(std::istream* in, EventRecord* record) {
  std::string tag;
  if (!(*in >> tag)) {
    return Status::IoError("checkpoint truncated: expected event record");
  }
  if (tag == "launch") {
    record->kind = EventKind::kLaunch;
    int frozen = 0;
    int violated = 0;
    if (!(*in >> record->seq >> frozen)) {
      return Status::IoError("bad launch record in checkpoint");
    }
    RESTUNE_RETURN_IF_ERROR(ReadSessionModeToken(in, &record->mode));
    if (!(*in >> violated)) {
      return Status::IoError("bad launch record in checkpoint");
    }
    record->frozen = frozen != 0;
    record->sla_violated = violated != 0;
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "theta"));
    return ReadVector(in, &record->theta);
  }
  if (tag != "complete") {
    return Status::IoError("checkpoint corrupt: expected event record, found '" +
                           tag + "'");
  }
  record->kind = EventKind::kComplete;
  int failed = 0;
  int watchdog = 0;
  int violated = 0;
  if (!(*in >> record->seq >> failed)) {
    return Status::IoError("bad completion record in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ReadFaultKindToken(in, &record->fault));
  if (!(*in >> record->attempts >> record->backoff_seconds >>
        record->elapsed_seconds >> watchdog)) {
    return Status::IoError("bad completion record in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ReadSessionModeToken(in, &record->mode_after));
  if (!(*in >> violated)) {
    return Status::IoError("bad completion record in checkpoint");
  }
  record->failed = failed != 0;
  record->watchdog_killed = watchdog != 0;
  record->sla_violated_after = violated != 0;
  if (!record->failed) {
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "obs"));
    RESTUNE_RETURN_IF_ERROR(ReadObservation(in, &record->observation));
  }
  return Status::OK();
}

void WriteInFlightRecord(std::ostream* out, const InFlightRecord& record) {
  *out << "inflight " << record.seq << ' ' << record.delivery_seconds << ' '
       << (record.failed ? 1 : 0) << ' ' << static_cast<int>(record.fault)
       << ' ' << record.attempts << ' ' << record.backoff_seconds << ' '
       << record.elapsed_seconds << ' ' << (record.watchdog_killed ? 1 : 0)
       << '\n';
  if (!record.failed) {
    *out << "obs\n";
    WriteObservation(out, record.observation);
  }
}

Status ReadInFlightRecord(std::istream* in, InFlightRecord* record) {
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "inflight"));
  int failed = 0;
  int watchdog = 0;
  if (!(*in >> record->seq >> record->delivery_seconds >> failed)) {
    return Status::IoError("bad in-flight record in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ReadFaultKindToken(in, &record->fault));
  if (!(*in >> record->attempts >> record->backoff_seconds >>
        record->elapsed_seconds >> watchdog)) {
    return Status::IoError("bad in-flight record in checkpoint");
  }
  record->failed = failed != 0;
  record->watchdog_killed = watchdog != 0;
  if (!record->failed) {
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "obs"));
    RESTUNE_RETURN_IF_ERROR(ReadObservation(in, &record->observation));
  }
  return Status::OK();
}

Status SaveEventSessionCheckpoint(const EventSessionCheckpoint& checkpoint,
                                  std::ostream* out) {
  out->precision(17);  // exact double round-trip
  *out << kEventMagic << ' ' << kEventVersion << '\n';
  *out << "launched " << checkpoint.launched << '\n';
  *out << "completed " << checkpoint.completed << '\n';
  *out << "clock " << checkpoint.clock_seconds << '\n';
  *out << "default\n";
  WriteObservation(out, checkpoint.default_observation);
  *out << "sla " << checkpoint.sla.min_tps << ' ' << checkpoint.sla.max_lat
       << '\n';
  const DbInstanceSimulator::State& sim = checkpoint.simulator_state;
  *out << "simstate " << sim.num_evaluations << ' ' << sim.simulated_seconds
       << '\n';
  *out << "simrng ";
  WriteRngState(out, sim.rng);
  *out << "faultrng ";
  WriteRngState(out, sim.fault_rng);
  *out << "suprng ";
  WriteRngState(out, checkpoint.supervisor_rng);
  *out << "records " << checkpoint.records.size() << '\n';
  for (const EventRecord& record : checkpoint.records) {
    WriteEventRecord(out, record);
  }
  *out << "pending " << checkpoint.in_flight.size() << '\n';
  for (const InFlightRecord& record : checkpoint.in_flight) {
    WriteInFlightRecord(out, record);
  }
  if (!checkpoint.metrics.empty()) {
    *out << "metrics " << checkpoint.metrics.size() << '\n';
    for (const auto& [name, value] : checkpoint.metrics) {
      *out << name << ' ' << value << '\n';
    }
  }
  *out << "end\n";
  if (!out->good()) return Status::IoError("checkpoint write failed");
  return Status::OK();
}

Result<EventSessionCheckpoint> LoadEventSessionCheckpoint(std::istream* in) {
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version)) {
    return Status::IoError("not a restune event checkpoint");
  }
  if (magic != kEventMagic) {
    return Status::IoError("not a restune event checkpoint (magic '" + magic +
                           "')");
  }
  if (version != kEventVersion) {
    return Status::NotImplemented("unsupported event checkpoint version " +
                                  std::to_string(version));
  }
  EventSessionCheckpoint checkpoint;
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "launched"));
  if (!(*in >> checkpoint.launched)) {
    return Status::IoError("bad launch count in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "completed"));
  if (!(*in >> checkpoint.completed)) {
    return Status::IoError("bad completion count in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "clock"));
  if (!(*in >> checkpoint.clock_seconds)) {
    return Status::IoError("bad clock in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "default"));
  RESTUNE_RETURN_IF_ERROR(
      ReadObservation(in, &checkpoint.default_observation));
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "sla"));
  if (!(*in >> checkpoint.sla.min_tps >> checkpoint.sla.max_lat)) {
    return Status::IoError("bad sla in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "simstate"));
  DbInstanceSimulator::State& sim = checkpoint.simulator_state;
  if (!(*in >> sim.num_evaluations >> sim.simulated_seconds)) {
    return Status::IoError("bad simulator state in checkpoint");
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "simrng"));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(in, &sim.rng));
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "faultrng"));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(in, &sim.fault_rng));
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "suprng"));
  RESTUNE_RETURN_IF_ERROR(ReadRngState(in, &checkpoint.supervisor_rng));
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "records"));
  size_t num_records = 0;
  if (!(*in >> num_records) || num_records > (1u << 24)) {
    return Status::IoError("bad record count in checkpoint");
  }
  checkpoint.records.reserve(num_records);
  for (size_t i = 0; i < num_records; ++i) {
    EventRecord record;
    RESTUNE_RETURN_IF_ERROR(ReadEventRecord(in, &record));
    checkpoint.records.push_back(std::move(record));
  }
  RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "pending"));
  size_t num_pending = 0;
  if (!(*in >> num_pending) || num_pending > (1u << 20)) {
    return Status::IoError("bad in-flight count in checkpoint");
  }
  checkpoint.in_flight.reserve(num_pending);
  for (size_t i = 0; i < num_pending; ++i) {
    InFlightRecord record;
    RESTUNE_RETURN_IF_ERROR(ReadInFlightRecord(in, &record));
    checkpoint.in_flight.push_back(std::move(record));
  }
  std::string tag;
  if (!(*in >> tag)) {
    return Status::IoError("checkpoint truncated: expected 'end'");
  }
  if (tag == "metrics") {
    size_t num_metrics = 0;
    if (!(*in >> num_metrics) || num_metrics > (1u << 20)) {
      return Status::IoError("bad metrics count in checkpoint");
    }
    checkpoint.metrics.reserve(num_metrics);
    for (size_t i = 0; i < num_metrics; ++i) {
      std::string name;
      int64_t value = 0;
      if (!(*in >> name >> value)) {
        return Status::IoError("bad metric entry in checkpoint");
      }
      checkpoint.metrics.emplace_back(std::move(name), value);
    }
    RESTUNE_RETURN_IF_ERROR(ExpectTag(in, "end"));
  } else if (tag != "end") {
    return Status::IoError("checkpoint corrupt: expected 'end', found '" +
                           tag + "'");
  }
  return checkpoint;
}

Status SaveEventSessionCheckpointFile(const EventSessionCheckpoint& checkpoint,
                                      const std::string& path) {
  const std::string tmp = path + ".tmp";
  Status write_status = Status::OK();
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::NotFound("cannot open '" + tmp + "' for write");
    write_status = SaveEventSessionCheckpoint(checkpoint, &out);
    if (write_status.ok()) {
      out.flush();
      if (!out.good()) {
        write_status = Status::IoError("write to '" + tmp + "' failed");
      }
    }
  }
  if (!write_status.ok()) {
    std::remove(tmp.c_str());
    return write_status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename '" + tmp + "' -> '" + path + "' failed");
  }
  return Status::OK();
}

Result<EventSessionCheckpoint> LoadEventSessionCheckpointFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open checkpoint '" + path + "'");
  return LoadEventSessionCheckpoint(&in);
}

}  // namespace restune
