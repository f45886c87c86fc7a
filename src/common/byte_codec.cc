#include "common/byte_codec.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace restune {

namespace {

constexpr char kFileMagic[4] = {'R', 'T', 'N', 'F'};

/// Slicing-by-16 tables: tables[0] is the bytewise table of the reflected
/// polynomial, and tables[k][b] is the CRC of byte b followed by k zero
/// bytes, so one step folds sixteen input bytes with sixteen lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

/// Little-endian store and load of an unsigned integer, byte by byte, so
/// they hold on any host byte order and never make an unaligned access
/// (compilers fuse them into one move where that is safe).
template <typename T>
void StoreLe(T value, char* dst) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    dst[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

template <typename T>
T LoadLe(const char* src) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<uint8_t>(src[i])) << (8 * i);
  }
  return value;
}

std::string FileHeader(FileKind kind, std::string_view payload) {
  ByteWriter header;
  header.PutBytes(std::string_view(kFileMagic, 4));
  header.PutU8(kFileFormatVersion);
  header.PutU8(static_cast<uint8_t>(kind));
  header.PutU8(0);
  header.PutU8(0);
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload));
  return header.Take();
}

/// Validates a file's 20-byte `header` for a `kind` file whose payload,
/// `present` bytes, follows it; returns the payload CRC the header stores.
Status CheckHeader(FileKind kind, std::string_view header, size_t present,
                   uint32_t* crc) {
  ByteReader reader(header);
  std::string_view magic;
  uint8_t version = 0;
  uint8_t stored_kind = 0;
  std::string_view reserved;
  uint64_t length = 0;
  RESTUNE_RETURN_IF_ERROR(reader.GetBytes(4, &magic));
  RESTUNE_RETURN_IF_ERROR(reader.GetU8(&version));
  RESTUNE_RETURN_IF_ERROR(reader.GetU8(&stored_kind));
  RESTUNE_RETURN_IF_ERROR(reader.GetBytes(2, &reserved));
  RESTUNE_RETURN_IF_ERROR(reader.GetU64(&length));
  RESTUNE_RETURN_IF_ERROR(reader.GetU32(crc));
  if (magic != std::string_view(kFileMagic, 4)) {
    return Status::InvalidArgument("file: bad magic (not a restune binary "
                                   "file; text formats are not supported)");
  }
  if (version != kFileFormatVersion) {
    return Status::NotImplemented("file: unsupported format version " +
                                  std::to_string(version));
  }
  if (stored_kind != static_cast<uint8_t>(kind)) {
    return Status::InvalidArgument(
        "file: kind " + std::to_string(stored_kind) + ", expected " +
        std::to_string(static_cast<unsigned>(kind)));
  }
  if (reserved != std::string_view("\0\0", 2)) {
    return Status::InvalidArgument("file: nonzero reserved bytes");
  }
  if (length != present) {
    return Status::OutOfRange("file: header declares " +
                              std::to_string(length) + " payload bytes, " +
                              std::to_string(present) + " present");
  }
  return Status::OK();
}

}  // namespace

template <typename T>
void ByteWriter::PutLe(T value) {
  char bytes[sizeof(T)];
  StoreLe(value, bytes);
  out_.append(bytes, sizeof(T));
}

void ByteWriter::PutU32(uint32_t value) { PutLe(value); }
void ByteWriter::PutU64(uint64_t value) { PutLe(value); }

void ByteWriter::PutF64(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(std::string_view value) {
  PutU32(static_cast<uint32_t>(value.size()));
  out_.append(value.data(), value.size());
}

void ByteWriter::PutVector(const std::vector<double>& value) {
  PutU32(static_cast<uint32_t>(value.size()));
  const size_t at = out_.size();
  out_.resize(at + sizeof(double) * value.size());
  char* dst = out_.data() + at;
  for (double v : value) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    StoreLe(bits, dst);
    dst += sizeof(bits);
  }
}

Status ByteReader::Need(size_t n) const {
  if (n > remaining()) {
    return Status::InvalidArgument("bytes: payload truncated");
  }
  return Status::OK();
}

Status ByteReader::GetU8(uint8_t* value) {
  RESTUNE_RETURN_IF_ERROR(Need(1));
  *value = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

template <typename T>
Status ByteReader::GetLe(T* value) {
  RESTUNE_RETURN_IF_ERROR(Need(sizeof(T)));
  *value = LoadLe<T>(data_.data() + pos_);
  pos_ += sizeof(T);
  return Status::OK();
}

Status ByteReader::GetU32(uint32_t* value) { return GetLe(value); }
Status ByteReader::GetU64(uint64_t* value) { return GetLe(value); }

Status ByteReader::GetI64(int64_t* value) {
  uint64_t bits = 0;
  RESTUNE_RETURN_IF_ERROR(GetU64(&bits));
  *value = static_cast<int64_t>(bits);
  return Status::OK();
}

Status ByteReader::GetF64(double* value) {
  uint64_t bits = 0;
  RESTUNE_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(value, &bits, sizeof(*value));
  return Status::OK();
}

Status ByteReader::GetBool(bool* value) {
  uint8_t raw = 0;
  RESTUNE_RETURN_IF_ERROR(GetU8(&raw));
  if (raw > 1) return Status::InvalidArgument("bytes: non-boolean flag");
  *value = raw != 0;
  return Status::OK();
}

Status ByteReader::GetString(std::string* value) {
  uint32_t len = 0;
  RESTUNE_RETURN_IF_ERROR(GetCount(&len, 1));
  value->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status ByteReader::GetVector(std::vector<double>* value) {
  uint32_t count = 0;
  // The count is checked against the bytes present before the one resize,
  // so the loop below reads only bytes that exist.
  RESTUNE_RETURN_IF_ERROR(GetCount(&count, sizeof(double)));
  value->resize(count);
  const char* src = data_.data() + pos_;
  for (double& v : *value) {
    const uint64_t bits = LoadLe<uint64_t>(src);
    std::memcpy(&v, &bits, sizeof(v));
    src += sizeof(bits);
  }
  pos_ += sizeof(double) * count;
  return Status::OK();
}

Status ByteReader::GetCount(uint32_t* count, size_t min_element_bytes) {
  RESTUNE_RETURN_IF_ERROR(GetU32(count));
  // Checked against the bytes actually present, so a hostile count can
  // never drive allocation past the input size.
  if (static_cast<uint64_t>(*count) * min_element_bytes > remaining()) {
    return Status::InvalidArgument("bytes: count " + std::to_string(*count) +
                                   " exceeds the remaining payload");
  }
  return Status::OK();
}

Status ByteReader::GetBytes(size_t n, std::string_view* bytes) {
  RESTUNE_RETURN_IF_ERROR(Need(n));
  *bytes = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument("bytes: trailing bytes after message");
  }
  return Status::OK();
}

uint32_t Crc32(std::string_view data) {
  static const CrcTables t = MakeCrcTables();
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  // Sixteen bytes per step: the CRC is folded into the first four, and
  // each byte's table accounts for the bytes that follow it in the step.
  for (; n >= 16; p += 16, n -= 16) {
    const uint32_t w = crc ^ LoadLe<uint32_t>(p);
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    uint32_t next = t[15][w & 0xffu] ^ t[14][(w >> 8) & 0xffu];
    next ^= t[13][(w >> 16) & 0xffu] ^ t[12][w >> 24];
    next ^= t[11][b[4]] ^ t[10][b[5]] ^ t[9][b[6]] ^ t[8][b[7]];
    next ^= t[7][b[8]] ^ t[6][b[9]] ^ t[5][b[10]] ^ t[4][b[11]];
    next ^= t[3][b[12]] ^ t[2][b[13]] ^ t[1][b[14]] ^ t[0][b[15]];
    crc = next;
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xffu];
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteSealed(FileKind kind, std::string_view payload,
                   std::ostream* out) {
  const std::string header = FileHeader(kind, payload);
  out->write(header.data(), static_cast<std::streamsize>(header.size()));
  out->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out->good()) return Status::IoError("file: write failed");
  return Status::OK();
}

Result<std::string> ReadSealed(FileKind kind, std::istream* in) {
  // The header goes to its own buffer and the payload lands in the
  // returned string in one sized read, so no byte is copied twice. Its
  // size comes from the stream's end, known before the header is trusted.
  char header[kFileHeaderBytes];
  in->read(header, kFileHeaderBytes);
  const size_t got = static_cast<size_t>(in->gcount());
  if (got < kFileHeaderBytes) {
    return Status::OutOfRange("file: truncated envelope (" +
                              std::to_string(got) + " bytes)");
  }
  const std::istream::pos_type begin = in->tellg();
  in->seekg(0, std::ios::end);
  const std::istream::pos_type end = in->tellg();
  in->seekg(begin);
  if (!*in || begin == std::istream::pos_type(-1) || end < begin) {
    return Status::IoError("file: stream is not seekable");
  }
  const size_t present = static_cast<size_t>(end - begin);
  uint32_t crc = 0;
  RESTUNE_RETURN_IF_ERROR(CheckHeader(
      kind, std::string_view(header, kFileHeaderBytes), present, &crc));
  std::string payload(present, '\0');
  in->read(payload.data(), static_cast<std::streamsize>(present));
  if (static_cast<size_t>(in->gcount()) != present) {
    return Status::IoError("file: short read");
  }
  if (Crc32(payload) != crc) return Status::IoError("file: CRC mismatch");
  return payload;
}

Status SaveSealedFile(const std::string& path, FileKind kind,
                      std::string_view payload) {
  const std::string tmp = path + ".tmp";
  Status write_status = Status::OK();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::NotFound("cannot open '" + tmp + "' for write");
    write_status = WriteSealed(kind, payload, &out);
    if (write_status.ok()) {
      out.flush();
      if (!out.good()) {
        write_status = Status::IoError("write to '" + tmp + "' failed");
      }
    }
  }
  // Never leave a half-written temp file behind: a stale .tmp from a
  // failed save must not shadow or outlive the real file.
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

Result<std::string> LoadSealedFile(const std::string& path, FileKind kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  return ReadSealed(kind, &in);
}

}  // namespace restune
