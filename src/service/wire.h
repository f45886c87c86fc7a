#ifndef RESTUNE_SERVICE_WIRE_H_
#define RESTUNE_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "gp/observation.h"
#include "service/messages.h"

/// Explicit binary serializers for every message in service/messages.h
/// (docs/SERVICE.md, "Messages"). These produce the *payload* of a
/// net::Frame; framing (magic/version/type/length/CRC) is net/frame.h's
/// job, and this header deliberately does not include it — serializers
/// stay transport-agnostic and the layering DAG stays common → net →
/// service with no back-edge.
///
/// Encoding rules are common/byte_codec.h's (the same codec writes every
/// durable file); `int` fields travel as two's-complement int64,
/// observations as gp/observation.h encodes them. Every request and response
/// payload begins with a uint64 `request_id`, echoed verbatim by the
/// server, which is what makes retries idempotent end-to-end: a client
/// that re-sends a request after a lost response can match the replay.
///
/// Decoders are bounds-checked everywhere (a claimed length never causes
/// allocation beyond the actual payload size) and return typed Status
/// errors; a trailing-garbage check rejects payloads longer than their
/// message.

namespace restune {

/// Frame `type` byte of each wire message.
enum class WireMessageType : uint8_t {
  kStartSessionRequest = 1,
  kStartSessionResponse = 2,
  kRecommendRequest = 3,
  kRecommendResponse = 4,
  kReportEvaluationRequest = 5,
  kReportEvaluationResponse = 6,
  kFinishSessionRequest = 7,
  kFinishSessionResponse = 8,
  kMetricsRequest = 9,
  kMetricsResponse = 10,
  kErrorResponse = 11,
};

/// Struct-level serializers, shared by requests and responses (and used
/// directly by the bit-identity round-trip tests). `WriteSummary` also
/// writes the finished sessions of the server checkpoint.
void WriteSubmission(ByteWriter* writer, const TargetTaskSubmission& sub);
Status ReadSubmission(ByteReader* reader, TargetTaskSubmission* sub);
void WriteRecommendation(ByteWriter* writer, const KnobRecommendation& rec);
Status ReadRecommendation(ByteReader* reader, KnobRecommendation* rec);
void WriteReport(ByteWriter* writer, const EvaluationReport& report);
Status ReadReport(ByteReader* reader, EvaluationReport* report);
void WriteSummary(ByteWriter* writer, const SessionSummary& summary);
Status ReadSummary(ByteReader* reader, SessionSummary* summary);

/// Message-level payload builders/parsers. Encode functions return the
/// frame payload for the matching WireMessageType; decode functions parse
/// one and reject malformed or trailing bytes.
std::string EncodeStartSessionRequest(uint64_t request_id,
                                      const TargetTaskSubmission& sub);
Status DecodeStartSessionRequest(std::string_view payload,
                                 uint64_t* request_id,
                                 TargetTaskSubmission* sub);
std::string EncodeStartSessionResponse(uint64_t request_id,
                                       uint64_t session_id);
Status DecodeStartSessionResponse(std::string_view payload,
                                  uint64_t* request_id, uint64_t* session_id);

/// `batch_width` 0 requests a single idempotent Recommend; ≥ 1 requests
/// RecommendBatch of that width.
std::string EncodeRecommendRequest(uint64_t request_id, uint64_t session_id,
                                   uint32_t batch_width);
Status DecodeRecommendRequest(std::string_view payload, uint64_t* request_id,
                              uint64_t* session_id, uint32_t* batch_width);
std::string EncodeRecommendResponse(
    uint64_t request_id, const std::vector<KnobRecommendation>& recs);
Status DecodeRecommendResponse(std::string_view payload, uint64_t* request_id,
                               std::vector<KnobRecommendation>* recs);

std::string EncodeReportEvaluationRequest(uint64_t request_id,
                                          const EvaluationReport& report);
Status DecodeReportEvaluationRequest(std::string_view payload,
                                     uint64_t* request_id,
                                     EvaluationReport* report);
std::string EncodeReportEvaluationResponse(uint64_t request_id);
Status DecodeReportEvaluationResponse(std::string_view payload,
                                      uint64_t* request_id);

std::string EncodeFinishSessionRequest(uint64_t request_id,
                                       uint64_t session_id);
Status DecodeFinishSessionRequest(std::string_view payload,
                                  uint64_t* request_id, uint64_t* session_id);
std::string EncodeFinishSessionResponse(uint64_t request_id,
                                        const SessionSummary& summary);
Status DecodeFinishSessionResponse(std::string_view payload,
                                   uint64_t* request_id,
                                   SessionSummary* summary);

std::string EncodeMetricsRequest(uint64_t request_id);
Status DecodeMetricsRequest(std::string_view payload, uint64_t* request_id);
std::string EncodeMetricsResponse(uint64_t request_id, std::string_view text);
Status DecodeMetricsResponse(std::string_view payload, uint64_t* request_id,
                             std::string* text);

/// Any server-side Status error travels back as this message, carrying
/// the original StatusCode + message so the client surfaces the same
/// typed error a local ResTuneServer call would have returned.
std::string EncodeErrorResponse(uint64_t request_id, const Status& status);
Status DecodeErrorResponse(std::string_view payload, uint64_t* request_id,
                           Status* decoded);

/// The request_id prefix shared by every payload, without full decoding
/// (the client uses it to match responses to in-flight requests).
Status PeekRequestId(std::string_view payload, uint64_t* request_id);

}  // namespace restune

#endif  // RESTUNE_SERVICE_WIRE_H_
