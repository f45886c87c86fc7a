#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "common/rng.h"
#include "net/frame.h"
#include "service/wire.h"

namespace restune {
namespace {

bool BitEq(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool BitEq(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) return false;
  }
  return true;
}

bool BitEq(const Observation& a, const Observation& b) {
  return BitEq(a.theta, b.theta) && BitEq(a.res, b.res) &&
         BitEq(a.tps, b.tps) && BitEq(a.lat, b.lat) &&
         BitEq(a.internals, b.internals);
}

Vector RandomDoubles(size_t n) {
  Rng rng(33);
  Vector values(n);
  for (double& v : values) v = rng.Gaussian(0.0, 1e3);
  return values;
}

Observation MakeObservation() {
  Observation obs;
  obs.theta = {0.25, 1.0 / 3.0, -0.0};
  obs.res = 123.456789012345678;
  obs.tps = 4567.25;
  obs.lat = 5e-324;  // smallest subnormal: exact bit round-trip required
  obs.internals = {0.99, 17.0};
  return obs;
}

TEST(FrameTest, Crc32MatchesKnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// The textbook CRC-32, one byte and then one bit at a time, with no
/// table: the reference the sliced kernel must match.
uint32_t ReferenceCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextUint64() & 0xff);
  return bytes;
}

TEST(ByteCodecTest, Crc32MatchesTheBytewiseReference) {
  // Every length through many 16-byte steps and every tail length, from
  // start offsets 0-7, so each tail and misalignment of the steps runs.
  const std::string bytes = RandomBytes(1100 + 8, 31);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const std::string_view view =
          std::string_view(bytes).substr(offset, length);
      ASSERT_EQ(Crc32(view), ReferenceCrc32(view))
          << "offset " << offset << ", length " << length;
    }
  }
  const std::string large = RandomBytes(1 << 20, 32);
  EXPECT_EQ(Crc32(large), ReferenceCrc32(large));
}

/// Doubles whose bits a codec could lose: NaN payloads of both signs and
/// kinds, signed zeros, denormals, infinities and the extremes.
Vector AwkwardDoubles() {
  Vector values;
  const auto add = [&values](uint64_t bits) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
  };
  add(0x7FF8000000000000ull);  // quiet NaN
  add(0x7FF8DEADBEEF0001ull);  // quiet NaN with a payload
  add(0xFFF8000000000123ull);  // negative quiet NaN with a payload
  add(0x7FF0000000000001ull);  // signaling NaN
  add(0x7FF4000000000000ull);  // signaling NaN, high payload bit
  add(0x8000000000000000ull);  // -0.0
  add(0x0000000000000000ull);  // +0.0
  add(0x0000000000000001ull);  // smallest denormal
  add(0x800FFFFFFFFFFFFFull);  // largest negative denormal
  add(0x0008000000000000ull);  // a mid-range denormal
  add(0x7FF0000000000000ull);  // +inf
  add(0xFFF0000000000000ull);  // -inf
  add(0x7FEFFFFFFFFFFFFFull);  // largest finite
  add(0x0010000000000000ull);  // smallest normal
  values.push_back(1.0 / 3.0);
  values.push_back(-123.456789012345678);
  return values;
}

TEST(ByteCodecTest, VectorsRoundTripBitExactly) {
  const Vector vectors[] = {{}, {-0.0}, AwkwardDoubles(), RandomDoubles(257)};
  ByteWriter writer;
  for (const Vector& v : vectors) writer.PutVector(v);
  writer.PutU8(0xA5);  // a trailer: each read must stop at its vector's end
  ByteReader reader(writer.str());
  for (const Vector& v : vectors) {
    Vector decoded = {7.0, 8.0};  // stale contents must be replaced
    ASSERT_TRUE(reader.GetVector(&decoded).ok());
    EXPECT_TRUE(BitEq(decoded, v));
  }
  uint8_t trailer = 0;
  ASSERT_TRUE(reader.GetU8(&trailer).ok());
  EXPECT_EQ(trailer, 0xA5);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(ByteCodecTest, PutVectorEmitsThePerElementBytes) {
  const Vector vectors[] = {{}, {-0.0}, AwkwardDoubles(), RandomDoubles(33)};
  for (const Vector& v : vectors) {
    ByteWriter bulk;
    bulk.PutU8(1);  // an odd offset before the vector
    bulk.PutVector(v);
    ByteWriter each;
    each.PutU8(1);
    each.PutU32(static_cast<uint32_t>(v.size()));
    for (double x : v) each.PutF64(x);
    EXPECT_EQ(bulk.str(), each.str()) << v.size() << " elements";
  }
}

TEST(ByteCodecTest, TruncatedVectorFailsWithoutReading) {
  ByteWriter writer;
  writer.PutVector({1.0, 2.0, 3.0});
  const std::string bytes = writer.str();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader(std::string_view(bytes).substr(0, cut));
    Vector v;
    EXPECT_EQ(reader.GetVector(&v).code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const std::string wire = net::EncodeFrame(7, "hello wire");
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + 10);
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  const auto next = decoder.Next(&frame);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  EXPECT_EQ(frame.type, 7);
  EXPECT_EQ(frame.payload, "hello wire");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, DecodesByteByByteAndBackToBack) {
  const std::string a = net::EncodeFrame(1, "first");
  const std::string b = net::EncodeFrame(2, "");
  const std::string wire = a + b;
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  for (char c : wire) {
    decoder.Feed(&c, 1);
    for (;;) {
      net::Frame frame;
      const auto next = decoder.Next(&frame);
      ASSERT_TRUE(next.ok());
      if (!next.value()) break;
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, 1);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].type, 2);
  EXPECT_TRUE(frames[1].payload.empty());
}

TEST(FrameTest, TruncatedFrameJustWaits) {
  const std::string wire = net::EncodeFrame(3, "payload");
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size() - 1);
  net::Frame frame;
  const auto next = decoder.Next(&frame);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value());
  EXPECT_FALSE(decoder.failed());
}

TEST(FrameTest, BadMagicIsInvalidArgumentAndSticky) {
  std::string wire = net::EncodeFrame(3, "x");
  wire[0] = 'Z';
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(&frame).status().code(),
            StatusCode::kInvalidArgument);
  // Sticky: feeding a pristine frame afterwards still errors.
  const std::string good = net::EncodeFrame(3, "x");
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameTest, UnknownVersionIsNotImplemented) {
  std::string wire = net::EncodeFrame(3, "x");
  wire[4] = 9;
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(&frame).status().code(), StatusCode::kNotImplemented);
}

TEST(FrameTest, NonzeroReservedIsRejected) {
  std::string wire = net::EncodeFrame(3, "x");
  wire[6] = 1;
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(&frame).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, OversizedPayloadIsOutOfRange) {
  const std::string wire = net::EncodeFrame(3, std::string(64, 'p'));
  net::FrameDecoder decoder(/*max_payload=*/16);
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(&frame).status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, CrcMismatchIsIoError) {
  std::string wire = net::EncodeFrame(3, "payload");
  wire.back() ^= 0x40;  // flip a payload bit; header CRC now disagrees
  net::FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  net::Frame frame;
  EXPECT_EQ(decoder.Next(&frame).status().code(), StatusCode::kIoError);
}

/// Satellite hardening test: a decoder fed adversarial bytes — truncated,
/// oversized, bit-flipped, bad-version, and pure-garbage frames from a
/// seeded RNG — must never crash and must always either wait for bytes or
/// return one of the typed protocol errors.
TEST(FrameTest, FuzzedInputNeverCrashesAndErrorsAreTyped) {
  Rng rng(20260808);
  for (int round = 0; round < 500; ++round) {
    // Build a corpus: some valid frames, then corrupt most of them.
    std::string stream;
    const int frames = 1 + static_cast<int>(rng.NextUint64() % 4);
    for (int f = 0; f < frames; ++f) {
      std::string payload(rng.NextUint64() % 100, 'q');
      for (char& c : payload) {
        c = static_cast<char>(rng.NextUint64() & 0xff);
      }
      std::string one =
          net::EncodeFrame(static_cast<uint8_t>(rng.NextUint64() & 0xff),
                           payload);
      const uint64_t corruption = rng.NextUint64() % 5;
      if (corruption == 1 && !one.empty()) {
        one[rng.NextUint64() % one.size()] ^=
            static_cast<char>(1 + (rng.NextUint64() & 0xff));
      } else if (corruption == 2) {
        one.resize(rng.NextUint64() % (one.size() + 1));  // truncate
      } else if (corruption == 3) {
        for (char& c : one) c = static_cast<char>(rng.NextUint64() & 0xff);
      }
      stream += one;
    }
    net::FrameDecoder decoder(/*max_payload=*/1024);
    size_t pos = 0;
    while (pos < stream.size()) {
      const size_t chunk =
          std::min(stream.size() - pos, 1 + rng.NextUint64() % 37);
      decoder.Feed(stream.data() + pos, chunk);
      pos += chunk;
      for (;;) {
        net::Frame frame;
        const auto next = decoder.Next(&frame);
        if (!next.ok()) {
          const StatusCode code = next.status().code();
          EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                      code == StatusCode::kNotImplemented ||
                      code == StatusCode::kOutOfRange ||
                      code == StatusCode::kIoError)
              << next.status().ToString();
          pos = stream.size();  // connection would be dropped
          break;
        }
        if (!next.value()) break;
      }
    }
  }
}

TEST(WireTest, SubmissionRoundTripsBitIdentically) {
  TargetTaskSubmission sub;
  sub.task_name = "tenant-42/twitter";
  sub.meta_feature = {0.1, 0.2, 0.3, -0.0, 1e300};
  sub.knob_dim = 3;
  sub.default_theta = {0.5, 0.5, 0.5};
  sub.default_observation = MakeObservation();
  sub.resource = "cpu";

  ByteWriter writer;
  WriteSubmission(&writer, sub);
  ByteReader reader(writer.str());
  TargetTaskSubmission back;
  ASSERT_TRUE(ReadSubmission(&reader, &back).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(back.task_name, sub.task_name);
  EXPECT_TRUE(BitEq(back.meta_feature, sub.meta_feature));
  EXPECT_EQ(back.knob_dim, sub.knob_dim);
  EXPECT_TRUE(BitEq(back.default_theta, sub.default_theta));
  EXPECT_TRUE(BitEq(back.default_observation, sub.default_observation));
  EXPECT_EQ(back.resource, sub.resource);
}

TEST(WireTest, RecommendationRoundTripsBitIdentically) {
  KnobRecommendation rec;
  rec.session_id = 0xDEADBEEFCAFEBABEull;
  rec.iteration = -7;  // int travels as two's-complement int64
  rec.theta = {1.0 / 3.0, 0.7500000000000002};

  ByteWriter writer;
  WriteRecommendation(&writer, rec);
  ByteReader reader(writer.str());
  KnobRecommendation back;
  ASSERT_TRUE(ReadRecommendation(&reader, &back).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(back.session_id, rec.session_id);
  EXPECT_EQ(back.iteration, rec.iteration);
  EXPECT_TRUE(BitEq(back.theta, rec.theta));
}

TEST(WireTest, ReportRoundTripsBitIdenticallyForEveryFaultKind) {
  for (uint8_t f = 0; f <= static_cast<uint8_t>(FaultKind::kSlaViolation);
       ++f) {
    EvaluationReport report;
    report.session_id = 99;
    report.iteration = 12;
    report.observation = MakeObservation();
    report.fault = static_cast<FaultKind>(f);

    ByteWriter writer;
    WriteReport(&writer, report);
    ByteReader reader(writer.str());
    EvaluationReport back;
    ASSERT_TRUE(ReadReport(&reader, &back).ok());
    ASSERT_TRUE(reader.ExpectEnd().ok());
    EXPECT_EQ(back.session_id, report.session_id);
    EXPECT_EQ(back.iteration, report.iteration);
    EXPECT_TRUE(BitEq(back.observation, report.observation));
    EXPECT_EQ(back.fault, report.fault);
  }
}

TEST(WireTest, UnknownFaultKindIsRejected) {
  EvaluationReport report;
  report.observation = MakeObservation();
  ByteWriter writer;
  WriteReport(&writer, report);
  std::string bytes = writer.Take();
  bytes.back() = static_cast<char>(250);  // fault byte is last
  ByteReader reader(bytes);
  EvaluationReport back;
  EXPECT_EQ(ReadReport(&reader, &back).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, SummaryRoundTripsBitIdentically) {
  SessionSummary summary;
  summary.session_id = 3;
  summary.iterations = 200;
  summary.best_theta = {0.1, 0.9};
  summary.best_feasible_res = 0.30000000000000004;
  summary.archived_to_repository = true;

  ByteWriter writer;
  WriteSummary(&writer, summary);
  ByteReader reader(writer.str());
  SessionSummary back;
  ASSERT_TRUE(ReadSummary(&reader, &back).ok());
  ASSERT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(back.session_id, summary.session_id);
  EXPECT_EQ(back.iterations, summary.iterations);
  EXPECT_TRUE(BitEq(back.best_theta, summary.best_theta));
  EXPECT_TRUE(BitEq(back.best_feasible_res, summary.best_feasible_res));
  EXPECT_EQ(back.archived_to_repository, summary.archived_to_repository);
}

TEST(WireTest, EveryRequestResponsePayloadRoundTrips) {
  TargetTaskSubmission sub;
  sub.task_name = "t";
  sub.knob_dim = 1;
  sub.meta_feature = {1.0};
  sub.default_theta = {0.5};
  sub.default_observation = MakeObservation();
  sub.resource = "io";

  uint64_t rid = 0;
  {
    TargetTaskSubmission back;
    ASSERT_TRUE(DecodeStartSessionRequest(
                    EncodeStartSessionRequest(41, sub), &rid, &back)
                    .ok());
    EXPECT_EQ(rid, 41u);
    EXPECT_EQ(back.task_name, "t");
  }
  {
    uint64_t session_id = 0;
    ASSERT_TRUE(DecodeStartSessionResponse(EncodeStartSessionResponse(42, 9),
                                           &rid, &session_id)
                    .ok());
    EXPECT_EQ(rid, 42u);
    EXPECT_EQ(session_id, 9u);
  }
  {
    uint64_t session_id = 0;
    uint32_t width = 0;
    ASSERT_TRUE(DecodeRecommendRequest(EncodeRecommendRequest(43, 9, 16),
                                       &rid, &session_id, &width)
                    .ok());
    EXPECT_EQ(rid, 43u);
    EXPECT_EQ(session_id, 9u);
    EXPECT_EQ(width, 16u);
  }
  {
    std::vector<KnobRecommendation> recs(2);
    recs[0].session_id = 9;
    recs[0].iteration = 1;
    recs[0].theta = {0.25};
    recs[1].session_id = 9;
    recs[1].iteration = 2;
    recs[1].theta = {0.75};
    std::vector<KnobRecommendation> back;
    ASSERT_TRUE(DecodeRecommendResponse(EncodeRecommendResponse(44, recs),
                                        &rid, &back)
                    .ok());
    EXPECT_EQ(rid, 44u);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[1].iteration, 2);
    EXPECT_TRUE(BitEq(back[1].theta, recs[1].theta));
  }
  {
    EvaluationReport report;
    report.session_id = 9;
    report.iteration = 1;
    report.observation = MakeObservation();
    EvaluationReport back;
    ASSERT_TRUE(DecodeReportEvaluationRequest(
                    EncodeReportEvaluationRequest(45, report), &rid, &back)
                    .ok());
    EXPECT_EQ(rid, 45u);
    EXPECT_TRUE(BitEq(back.observation, report.observation));
    ASSERT_TRUE(DecodeReportEvaluationResponse(
                    EncodeReportEvaluationResponse(46), &rid)
                    .ok());
    EXPECT_EQ(rid, 46u);
  }
  {
    uint64_t session_id = 0;
    ASSERT_TRUE(DecodeFinishSessionRequest(EncodeFinishSessionRequest(47, 9),
                                           &rid, &session_id)
                    .ok());
    EXPECT_EQ(rid, 47u);
    SessionSummary summary;
    summary.session_id = 9;
    summary.iterations = 5;
    summary.best_theta = {0.5};
    SessionSummary back;
    ASSERT_TRUE(DecodeFinishSessionResponse(
                    EncodeFinishSessionResponse(48, summary), &rid, &back)
                    .ok());
    EXPECT_EQ(rid, 48u);
    EXPECT_EQ(back.iterations, 5);
  }
  {
    ASSERT_TRUE(DecodeMetricsRequest(EncodeMetricsRequest(49), &rid).ok());
    EXPECT_EQ(rid, 49u);
    std::string text;
    ASSERT_TRUE(DecodeMetricsResponse(
                    EncodeMetricsResponse(50, "# HELP restune_up\n"), &rid,
                    &text)
                    .ok());
    EXPECT_EQ(rid, 50u);
    EXPECT_EQ(text, "# HELP restune_up\n");
  }
  {
    Status carried = Status::OK();
    ASSERT_TRUE(DecodeErrorResponse(
                    EncodeErrorResponse(
                        51, Status::NotFound("no session 9")),
                    &rid, &carried)
                    .ok());
    EXPECT_EQ(rid, 51u);
    EXPECT_EQ(carried.code(), StatusCode::kNotFound);
    EXPECT_EQ(carried.message(), "no session 9");
  }
}

TEST(WireTest, TrailingGarbageIsRejected) {
  std::string payload = EncodeMetricsRequest(1);
  payload.push_back('x');
  uint64_t rid = 0;
  EXPECT_EQ(DecodeMetricsRequest(payload, &rid).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, HostileLengthFieldsCannotOverAllocate) {
  // A vector claiming 2^32-1 elements inside an 8-byte payload must fail
  // cleanly (bounds check), not attempt a 32 GiB allocation.
  ByteWriter writer;
  writer.PutU32(0xFFFFFFFFu);
  writer.PutU32(0);
  ByteReader reader(writer.str());
  Vector v;
  EXPECT_EQ(reader.GetVector(&v).code(), StatusCode::kInvalidArgument);
  std::string s;
  ByteReader reader2(writer.str());
  EXPECT_EQ(reader2.GetString(&s).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, PeekRequestIdReadsThePrefix) {
  const std::string payload = EncodeFinishSessionRequest(77, 9);
  uint64_t rid = 0;
  ASSERT_TRUE(PeekRequestId(payload, &rid).ok());
  EXPECT_EQ(rid, 77u);
  EXPECT_EQ(PeekRequestId("short", &rid).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace restune
