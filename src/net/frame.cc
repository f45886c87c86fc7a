#include "net/frame.h"

#include "common/byte_codec.h"

namespace restune {
namespace net {

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  ByteWriter frame;
  frame.PutBytes(std::string_view(kWireMagic, 4));
  frame.PutU8(kWireVersion);
  frame.PutU8(type);
  frame.PutU8(0);
  frame.PutU8(0);
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  frame.PutBytes(payload);
  return frame.Take();
}

Result<bool> FrameDecoder::Next(Frame* frame) {
  if (!failed_.ok()) return failed_;
  if (buffer_.size() < kFrameHeaderBytes) return false;
  ByteReader header(std::string_view(buffer_).substr(0, kFrameHeaderBytes));
  std::string_view magic;
  uint8_t version = 0;
  uint8_t type = 0;
  std::string_view reserved;
  uint32_t payload_size = 0;
  uint32_t expected_crc = 0;
  RESTUNE_RETURN_IF_ERROR(header.GetBytes(4, &magic));
  RESTUNE_RETURN_IF_ERROR(header.GetU8(&version));
  RESTUNE_RETURN_IF_ERROR(header.GetU8(&type));
  RESTUNE_RETURN_IF_ERROR(header.GetBytes(2, &reserved));
  RESTUNE_RETURN_IF_ERROR(header.GetU32(&payload_size));
  RESTUNE_RETURN_IF_ERROR(header.GetU32(&expected_crc));
  if (magic != std::string_view(kWireMagic, 4)) {
    failed_ = Status::InvalidArgument("frame: bad magic");
    return failed_;
  }
  if (version != kWireVersion) {
    failed_ = Status::NotImplemented("frame: unsupported wire version " +
                                     std::to_string(version));
    return failed_;
  }
  if (reserved != std::string_view("\0\0", 2)) {
    failed_ = Status::InvalidArgument("frame: nonzero reserved bytes");
    return failed_;
  }
  if (payload_size > max_payload_) {
    failed_ = Status::OutOfRange(
        "frame: payload of " + std::to_string(payload_size) +
        " bytes exceeds cap of " + std::to_string(max_payload_));
    return failed_;
  }
  if (buffer_.size() < kFrameHeaderBytes + payload_size) return false;
  const std::string_view payload(buffer_.data() + kFrameHeaderBytes,
                                 payload_size);
  if (Crc32(payload) != expected_crc) {
    failed_ = Status::IoError("frame: CRC mismatch");
    return failed_;
  }
  frame->type = type;
  frame->payload.assign(payload.data(), payload.size());
  buffer_.erase(0, kFrameHeaderBytes + payload_size);
  return true;
}

}  // namespace net
}  // namespace restune
