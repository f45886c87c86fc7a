#ifndef RESTUNE_NET_FRAME_H_
#define RESTUNE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

/// Length-prefixed binary framing (docs/SERVICE.md, "Wire format").
///
/// Every message on the wire is one frame:
///
///     offset  size  field
///     0       4     magic "RTNW"
///     4       1     version (kWireVersion)
///     5       1     message type (opaque to this layer)
///     6       2     reserved, must be 0
///     8       4     payload length, little-endian uint32
///     12      4     CRC-32 (common/byte_codec.h) of the payload
///     16      n     payload
///
/// The decoder is incremental (feed arbitrary byte chunks, pull complete
/// frames) and fails closed: any malformed header or CRC mismatch puts it
/// into a sticky error state — the connection is unrecoverable because
/// frame boundaries are lost. Errors are typed so callers can count them:
/// bad magic / nonzero reserved → kInvalidArgument, unknown version →
/// kNotImplemented, oversized payload → kOutOfRange, CRC mismatch →
/// kIoError.

namespace restune {
namespace net {

inline constexpr char kWireMagic[4] = {'R', 'T', 'N', 'W'};
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default payload cap. Generous for tuning traffic (the largest message,
/// a batch of 64 recommendations over a wide knob space, is a few tens of
/// KiB) while bounding what one malicious length field can make the
/// server buffer.
inline constexpr size_t kDefaultMaxFramePayload = 16u << 20;

/// One decoded frame.
struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Encodes a complete frame (header + payload) ready for the wire.
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Incremental frame parser for one connection's byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes from the socket.
  void Feed(const char* data, size_t len) { buffer_.append(data, len); }

  /// Pulls the next complete frame. Returns true and fills `*frame` when
  /// one is available, false when more bytes are needed. A protocol
  /// violation returns a typed error and sticks: every later call repeats
  /// the same error.
  Result<bool> Next(Frame* frame);

  /// Bytes fed but not yet consumed as frames.
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Whether the decoder has entered the sticky error state.
  bool failed() const { return !failed_.ok(); }

 private:
  std::string buffer_;
  size_t max_payload_;
  Status failed_ = Status::OK();
};

}  // namespace net
}  // namespace restune

#endif  // RESTUNE_NET_FRAME_H_
