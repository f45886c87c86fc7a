#ifndef RESTUNE_COMMON_BYTE_CODEC_H_
#define RESTUNE_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// The one binary codec of the project: wire payloads (service/wire.h),
/// frame headers (net/frame.h) and every durable file (server and
/// event-session checkpoints, the data repository, GP model files) are
/// written and read with these primitives (docs/SERVICE.md, "Wire format").
///
/// Encoding rules: integers little-endian fixed-width; doubles as their
/// IEEE-754 bit pattern (bit-identical round trip, NaN payloads included);
/// strings and double vectors length-prefixed with uint32. Every read is
/// bounds-checked and fails with kInvalidArgument, and a claimed length or
/// count never allocates past the bytes actually remaining.

namespace restune {

/// Appends primitive values to a byte string.
class ByteWriter {
 public:
  void PutU8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutF64(double value);
  void PutBool(bool value) { PutU8(value ? 1 : 0); }
  void PutString(std::string_view value);
  void PutVector(const std::vector<double>& value);
  /// Raw bytes, no length prefix.
  void PutBytes(std::string_view bytes) { out_.append(bytes); }

  /// Room for `n` bytes in one allocation; the bytes written are the same.
  void Reserve(size_t n) { out_.reserve(n); }

  std::string Take() { return std::move(out_); }
  const std::string& str() const { return out_; }

 private:
  template <typename T>
  void PutLe(T value);
  std::string out_;
};

/// Consumes primitive values from a byte string.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  Status GetU8(uint8_t* value);
  Status GetU32(uint32_t* value);
  Status GetU64(uint64_t* value);
  Status GetI64(int64_t* value);
  Status GetF64(double* value);
  /// Rejects any byte other than 0 or 1.
  Status GetBool(bool* value);
  Status GetString(std::string* value);
  Status GetVector(std::vector<double>* value);
  /// A uint32 element count, rejected unless `count * min_element_bytes`
  /// fits in the remaining bytes — so callers may reserve `count` safely.
  Status GetCount(uint32_t* count, size_t min_element_bytes);
  /// A uint8 enum tag, rejected above `max_value`.
  template <typename Enum>
  Status GetEnum(Enum* value, Enum max_value) {
    uint8_t raw = 0;
    RESTUNE_RETURN_IF_ERROR(GetU8(&raw));
    if (raw > static_cast<uint8_t>(max_value)) {
      return Status::InvalidArgument("bytes: enum tag " + std::to_string(raw) +
                                     " out of range");
    }
    *value = static_cast<Enum>(raw);
    return Status::OK();
  }
  /// `n` raw bytes, viewed in place.
  Status GetBytes(size_t n, std::string_view* bytes);

  /// kInvalidArgument unless every byte was consumed.
  Status ExpectEnd() const;
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;
  template <typename T>
  Status GetLe(T* value);
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Computed by
/// slicing-by-16 (sixteen bytes per step from sixteen 256-entry tables,
/// then a bytewise tail); its values are those of the classic bytewise
/// loop, so every sealed file and frame keeps its bytes.
uint32_t Crc32(std::string_view data);

/// --- File envelope ------------------------------------------------------
///
/// Every durable file is one payload sealed in a 20-byte envelope:
///
///     offset  size  field
///     0       4     magic "RTNF"
///     4       1     format version (kFileFormatVersion)
///     5       1     kind (FileKind)
///     6       2     reserved, must be 0
///     8       8     payload length, little-endian uint64
///     16      4     CRC-32 of the payload
///     20      n     payload
///
/// Opening fails closed with a typed error: bad magic, wrong kind or
/// nonzero reserved bytes → kInvalidArgument (the old text formats land
/// here), unknown version → kNotImplemented, a length that disagrees with
/// the bytes present (truncation or trailing bytes) → kOutOfRange, CRC
/// mismatch → kIoError.

enum class FileKind : uint8_t {
  kServerCheckpoint = 1,
  kEventCheckpoint = 2,
  kRepository = 3,
  kGpModel = 4,
};

inline constexpr uint8_t kFileFormatVersion = 1;
inline constexpr size_t kFileHeaderBytes = 20;

/// Writes `payload` sealed as a `kind` file to `out`.
Status WriteSealed(FileKind kind, std::string_view payload, std::ostream* out);

/// Reads `in` to its end and returns the payload of a sealed `kind` file.
/// The payload is read in one sized call, so `in` must be seekable (file
/// and string streams are); one that cannot report its end → kIoError.
Result<std::string> ReadSealed(FileKind kind, std::istream* in);

/// Atomic file variant of WriteSealed: the bytes go to `<path>.tmp`, which
/// is renamed over `path` only after a complete write, so a crash mid-save
/// never leaves a torn file behind.
Status SaveSealedFile(const std::string& path, FileKind kind,
                      std::string_view payload);

/// File variant of ReadSealed; kNotFound when `path` cannot be opened.
Result<std::string> LoadSealedFile(const std::string& path, FileKind kind);

}  // namespace restune

#endif  // RESTUNE_COMMON_BYTE_CODEC_H_
