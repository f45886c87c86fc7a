#include "service/wire.h"

namespace restune {

namespace {

constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kAborted);

}  // namespace

void WriteSubmission(ByteWriter* writer, const TargetTaskSubmission& sub) {
  writer->PutString(sub.task_name);
  writer->PutVector(sub.meta_feature);
  writer->PutU64(static_cast<uint64_t>(sub.knob_dim));
  writer->PutVector(sub.default_theta);
  WriteObservation(writer, sub.default_observation);
  writer->PutString(sub.resource);
}

Status ReadSubmission(ByteReader* reader, TargetTaskSubmission* sub) {
  RESTUNE_RETURN_IF_ERROR(reader->GetString(&sub->task_name));
  RESTUNE_RETURN_IF_ERROR(reader->GetVector(&sub->meta_feature));
  uint64_t knob_dim = 0;
  RESTUNE_RETURN_IF_ERROR(reader->GetU64(&knob_dim));
  sub->knob_dim = static_cast<size_t>(knob_dim);
  RESTUNE_RETURN_IF_ERROR(reader->GetVector(&sub->default_theta));
  RESTUNE_RETURN_IF_ERROR(
      ReadObservation(reader, &sub->default_observation));
  RESTUNE_RETURN_IF_ERROR(reader->GetString(&sub->resource));
  return Status::OK();
}

void WriteRecommendation(ByteWriter* writer, const KnobRecommendation& rec) {
  writer->PutU64(rec.session_id);
  writer->PutI64(rec.iteration);
  writer->PutVector(rec.theta);
}

Status ReadRecommendation(ByteReader* reader, KnobRecommendation* rec) {
  RESTUNE_RETURN_IF_ERROR(reader->GetU64(&rec->session_id));
  int64_t iteration = 0;
  RESTUNE_RETURN_IF_ERROR(reader->GetI64(&iteration));
  rec->iteration = static_cast<int>(iteration);
  RESTUNE_RETURN_IF_ERROR(reader->GetVector(&rec->theta));
  return Status::OK();
}

void WriteReport(ByteWriter* writer, const EvaluationReport& report) {
  writer->PutU64(report.session_id);
  writer->PutI64(report.iteration);
  WriteObservation(writer, report.observation);
  writer->PutU8(static_cast<uint8_t>(report.fault));
}

Status ReadReport(ByteReader* reader, EvaluationReport* report) {
  RESTUNE_RETURN_IF_ERROR(reader->GetU64(&report->session_id));
  int64_t iteration = 0;
  RESTUNE_RETURN_IF_ERROR(reader->GetI64(&iteration));
  report->iteration = static_cast<int>(iteration);
  RESTUNE_RETURN_IF_ERROR(ReadObservation(reader, &report->observation));
  return reader->GetEnum(&report->fault, FaultKind::kSlaViolation);
}

void WriteSummary(ByteWriter* writer, const SessionSummary& summary) {
  writer->PutU64(summary.session_id);
  writer->PutI64(summary.iterations);
  writer->PutVector(summary.best_theta);
  writer->PutF64(summary.best_feasible_res);
  writer->PutBool(summary.archived_to_repository);
}

Status ReadSummary(ByteReader* reader, SessionSummary* summary) {
  RESTUNE_RETURN_IF_ERROR(reader->GetU64(&summary->session_id));
  int64_t iterations = 0;
  RESTUNE_RETURN_IF_ERROR(reader->GetI64(&iterations));
  summary->iterations = static_cast<int>(iterations);
  RESTUNE_RETURN_IF_ERROR(reader->GetVector(&summary->best_theta));
  RESTUNE_RETURN_IF_ERROR(reader->GetF64(&summary->best_feasible_res));
  return reader->GetBool(&summary->archived_to_repository);
}

std::string EncodeStartSessionRequest(uint64_t request_id,
                                      const TargetTaskSubmission& sub) {
  ByteWriter writer;
  writer.PutU64(request_id);
  WriteSubmission(&writer, sub);
  return writer.Take();
}

Status DecodeStartSessionRequest(std::string_view payload,
                                 uint64_t* request_id,
                                 TargetTaskSubmission* sub) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(ReadSubmission(&reader, sub));
  return reader.ExpectEnd();
}

std::string EncodeStartSessionResponse(uint64_t request_id,
                                       uint64_t session_id) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutU64(session_id);
  return writer.Take();
}

Status DecodeStartSessionResponse(std::string_view payload,
                                  uint64_t* request_id, uint64_t* session_id) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(session_id));
  return reader.ExpectEnd();
}

std::string EncodeRecommendRequest(uint64_t request_id, uint64_t session_id,
                                   uint32_t batch_width) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutU64(session_id);
  writer.PutU32(batch_width);
  return writer.Take();
}

Status DecodeRecommendRequest(std::string_view payload, uint64_t* request_id,
                              uint64_t* session_id, uint32_t* batch_width) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(session_id));
  RESTUNE_RETURN_IF_ERROR(reader.GetU32(batch_width));
  return reader.ExpectEnd();
}

std::string EncodeRecommendResponse(
    uint64_t request_id, const std::vector<KnobRecommendation>& recs) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutU32(static_cast<uint32_t>(recs.size()));
  for (const auto& rec : recs) WriteRecommendation(&writer, rec);
  return writer.Take();
}

Status DecodeRecommendResponse(std::string_view payload, uint64_t* request_id,
                               std::vector<KnobRecommendation>* recs) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  // session id, iteration and an empty theta: 20 bytes at least.
  uint32_t count = 0;
  RESTUNE_RETURN_IF_ERROR(reader.GetCount(&count, 20));
  recs->clear();
  recs->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    KnobRecommendation rec;
    RESTUNE_RETURN_IF_ERROR(ReadRecommendation(&reader, &rec));
    recs->push_back(std::move(rec));
  }
  return reader.ExpectEnd();
}

std::string EncodeReportEvaluationRequest(uint64_t request_id,
                                          const EvaluationReport& report) {
  ByteWriter writer;
  writer.PutU64(request_id);
  WriteReport(&writer, report);
  return writer.Take();
}

Status DecodeReportEvaluationRequest(std::string_view payload,
                                     uint64_t* request_id,
                                     EvaluationReport* report) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(ReadReport(&reader, report));
  return reader.ExpectEnd();
}

std::string EncodeReportEvaluationResponse(uint64_t request_id) {
  ByteWriter writer;
  writer.PutU64(request_id);
  return writer.Take();
}

Status DecodeReportEvaluationResponse(std::string_view payload,
                                      uint64_t* request_id) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  return reader.ExpectEnd();
}

std::string EncodeFinishSessionRequest(uint64_t request_id,
                                       uint64_t session_id) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutU64(session_id);
  return writer.Take();
}

Status DecodeFinishSessionRequest(std::string_view payload,
                                  uint64_t* request_id, uint64_t* session_id) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(session_id));
  return reader.ExpectEnd();
}

std::string EncodeFinishSessionResponse(uint64_t request_id,
                                        const SessionSummary& summary) {
  ByteWriter writer;
  writer.PutU64(request_id);
  WriteSummary(&writer, summary);
  return writer.Take();
}

Status DecodeFinishSessionResponse(std::string_view payload,
                                   uint64_t* request_id,
                                   SessionSummary* summary) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(ReadSummary(&reader, summary));
  return reader.ExpectEnd();
}

std::string EncodeMetricsRequest(uint64_t request_id) {
  ByteWriter writer;
  writer.PutU64(request_id);
  return writer.Take();
}

Status DecodeMetricsRequest(std::string_view payload, uint64_t* request_id) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  return reader.ExpectEnd();
}

std::string EncodeMetricsResponse(uint64_t request_id, std::string_view text) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutString(text);
  return writer.Take();
}

Status DecodeMetricsResponse(std::string_view payload, uint64_t* request_id,
                             std::string* text) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  RESTUNE_RETURN_IF_ERROR(reader.GetString(text));
  return reader.ExpectEnd();
}

std::string EncodeErrorResponse(uint64_t request_id, const Status& status) {
  ByteWriter writer;
  writer.PutU64(request_id);
  writer.PutU8(static_cast<uint8_t>(status.code()));
  writer.PutString(status.message());
  return writer.Take();
}

Status DecodeErrorResponse(std::string_view payload, uint64_t* request_id,
                           Status* decoded) {
  ByteReader reader(payload);
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(request_id));
  uint8_t code = 0;
  RESTUNE_RETURN_IF_ERROR(reader.GetU8(&code));
  if (code == 0 || code > kMaxStatusCode) {
    return Status::InvalidArgument("wire: invalid status code " +
                                   std::to_string(code));
  }
  std::string message;
  RESTUNE_RETURN_IF_ERROR(reader.GetString(&message));
  RESTUNE_RETURN_IF_ERROR(reader.ExpectEnd());
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status PeekRequestId(std::string_view payload, uint64_t* request_id) {
  ByteReader reader(payload);
  return reader.GetU64(request_id);
}

}  // namespace restune
