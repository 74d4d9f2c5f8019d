#include "timeseries/wal.h"

#include <cstring>

#include "util/crc32.h"
#include "util/varint.h"

namespace dd {
namespace {

constexpr char kMagic[4] = {'D', 'D', 'W', 'L'};
constexpr uint8_t kVersion = 1;

// Upper bound on one record body; real records are a few KB (one worker
// sketch), so anything larger is corruption even before the CRC check.
constexpr uint64_t kMaxRecordBytes = uint64_t{1} << 26;  // 64 MiB

Status DecodeBody(std::string_view body, WalRecord* record) {
  Slice in(body);
  std::string_view type_byte;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &type_byte));
  const uint8_t type = static_cast<uint8_t>(type_byte[0]);
  if (type != static_cast<uint8_t>(WalRecord::Type::kIngestSketch) &&
      type != static_cast<uint8_t>(WalRecord::Type::kIngestValue)) {
    return Status::Corruption("unknown WAL record type");
  }
  record->type = static_cast<WalRecord::Type>(type);
  uint64_t series_len = 0;
  DD_RETURN_IF_ERROR(in.GetVarint64(&series_len));
  if (series_len > in.remaining()) {
    return Status::Corruption("WAL series name overruns record");
  }
  std::string_view series;
  DD_RETURN_IF_ERROR(in.GetBytes(series_len, &series));
  record->series.assign(series);
  DD_RETURN_IF_ERROR(in.GetVarintSigned64(&record->timestamp));
  if (record->type == WalRecord::Type::kIngestSketch) {
    uint64_t payload_len = 0;
    DD_RETURN_IF_ERROR(in.GetVarint64(&payload_len));
    if (payload_len > in.remaining()) {
      return Status::Corruption("WAL payload overruns record");
    }
    std::string_view payload;
    DD_RETURN_IF_ERROR(in.GetBytes(payload_len, &payload));
    record->payload.assign(payload);
    record->value = 0;
  } else {
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&record->value));
    record->payload.clear();
  }
  if (!in.empty()) {
    return Status::Corruption("trailing bytes in WAL record body");
  }
  return Status::OK();
}

}  // namespace

// magic + version + fixed32 epoch + fixed32 crc.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 1 + 2 * sizeof(uint32_t);
static_assert(kHeaderBytes == kWalHeaderBytes,
              "wal.h kWalHeaderBytes must match the encoded header size");

std::string EncodeWalHeader(uint32_t epoch) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  PutFixed32(&out, epoch);
  PutFixed32(&out, Crc32c(out));
  return out;
}

namespace {
Status CheckEpochRange(uint64_t epoch) {
  if (epoch > UINT32_MAX) {
    return Status::InvalidArgument("WAL epoch exceeds fixed32 range");
  }
  return Status::OK();
}

size_t VarintLength(uint64_t value) {
  size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

void AppendWalRecord(const WalRecord& record, std::string* out) {
  const bool sketch = record.type == WalRecord::Type::kIngestSketch;
  const uint64_t body_len =
      1 + VarintLength(record.series.size()) + record.series.size() +
      VarintLength(ZigZagEncode(record.timestamp)) +
      (sketch ? VarintLength(record.payload.size()) + record.payload.size()
              : sizeof(double));
  PutVarint64(out, body_len);
  const size_t crc_at = out->size();
  out->append(sizeof(uint32_t), '\0');  // the body's CRC, filled in below
  const size_t body_at = out->size();
  out->push_back(static_cast<char>(record.type));
  PutVarint64(out, record.series.size());
  out->append(record.series);
  PutVarintSigned64(out, record.timestamp);
  if (sketch) {
    PutVarint64(out, record.payload.size());
    out->append(record.payload);
  } else {
    PutFixedDouble(out, record.value);
  }
  const uint32_t crc = Crc32c(std::string_view(*out).substr(body_at));
  for (size_t i = 0; i < sizeof(uint32_t); ++i) {
    (*out)[crc_at + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string framed;
  AppendWalRecord(record, &framed);
  return framed;
}

Result<WalContents> ReadWal(std::string_view file_bytes, WalRead mode) {
  WalContents contents;
  if (file_bytes.size() < kHeaderBytes) {
    // The header is written and fsynced before any append is
    // acknowledged, so a short file means a crash during log creation.
    if (mode == WalRead::kStrict) {
      return Status::Corruption("truncated WAL header");
    }
    contents.header_valid = false;
    contents.torn_tail = true;
    return contents;
  }
  Slice in(file_bytes);
  std::string_view magic;
  DD_RETURN_IF_ERROR(in.GetBytes(sizeof(kMagic), &magic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad WAL magic");
  }
  std::string_view version;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &version));
  if (static_cast<uint8_t>(version[0]) != kVersion) {
    return Status::Corruption("unsupported WAL version");
  }
  uint32_t epoch32 = 0;
  DD_RETURN_IF_ERROR(in.GetFixed32(&epoch32));
  contents.epoch = epoch32;
  uint32_t header_crc = 0;
  DD_RETURN_IF_ERROR(in.GetFixed32(&header_crc));
  if (header_crc !=
      Crc32c(file_bytes.substr(0, kHeaderBytes - sizeof(uint32_t)))) {
    return Status::Corruption("WAL header checksum mismatch");
  }
  contents.valid_size = kHeaderBytes;

  while (!in.empty()) {
    // Frame parse: distinguish "runs past EOF" (torn tail) from bit rot.
    Slice frame = in;
    uint64_t body_len = 0;
    const Status len_status = frame.GetVarint64(&body_len);
    bool torn = false;
    std::string_view body;
    uint32_t crc = 0;
    if (!len_status.ok()) {
      torn = true;  // truncated varint at EOF
    } else if (body_len > kMaxRecordBytes) {
      return Status::Corruption("WAL record length implausibly large");
    } else if (!frame.GetFixed32(&crc).ok() ||
               !frame.GetBytes(body_len, &body).ok()) {
      torn = true;  // frame extends past EOF
    }
    if (torn) {
      if (mode == WalRead::kStrict) {
        return Status::Corruption("truncated WAL record");
      }
      contents.torn_tail = true;
      break;
    }
    if (crc != Crc32c(body)) {
      return Status::Corruption("WAL record checksum mismatch");
    }
    WalRecord record;
    DD_RETURN_IF_ERROR(DecodeBody(body, &record));
    contents.records.push_back(std::move(record));
    in = frame;
    contents.valid_size = file_bytes.size() - in.remaining();
  }
  return contents;
}

Result<std::vector<WalRecord>> DecodeWalSegment(std::string_view bytes) {
  std::vector<WalRecord> records;
  Slice in(bytes);
  while (!in.empty()) {
    uint64_t body_len = 0;
    if (!in.GetVarint64(&body_len).ok()) {
      return Status::Corruption("truncated record frame in WAL segment");
    }
    if (body_len > kMaxRecordBytes) {
      return Status::Corruption("WAL segment record length implausibly large");
    }
    uint32_t crc = 0;
    std::string_view body;
    if (!in.GetFixed32(&crc).ok() || !in.GetBytes(body_len, &body).ok()) {
      return Status::Corruption("truncated record frame in WAL segment");
    }
    if (crc != Crc32c(body)) {
      return Status::Corruption("WAL segment record checksum mismatch");
    }
    WalRecord record;
    DD_RETURN_IF_ERROR(DecodeBody(body, &record));
    records.push_back(std::move(record));
  }
  return records;
}

size_t CompleteFramePrefix(std::string_view bytes,
                           uint64_t* split_frame_size) {
  *split_frame_size = 0;
  Slice in(bytes);
  size_t valid = 0;
  while (!in.empty()) {
    Slice frame = in;
    uint64_t body_len = 0;
    if (!frame.GetVarint64(&body_len).ok() || body_len > kMaxRecordBytes) {
      break;
    }
    const uint64_t len_bytes = in.remaining() - frame.remaining();
    uint32_t crc = 0;
    std::string_view body;
    if (!frame.GetFixed32(&crc).ok() || !frame.GetBytes(body_len, &body).ok()) {
      *split_frame_size = len_bytes + sizeof(uint32_t) + body_len;
      break;
    }
    in = frame;
    valid = bytes.size() - in.remaining();
  }
  return valid;
}

Result<WalContents> ReadWalFile(const std::string& path, WalRead mode) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ReadWal(bytes.value(), mode);
}

Result<WalWriter> WalWriter::Create(const std::string& path, uint64_t epoch) {
  DD_RETURN_IF_ERROR(CheckEpochRange(epoch));
  // Truncate any previous contents, then write the header durably.
  DD_RETURN_IF_ERROR(RemoveFileIfExists(path));
  auto file = AppendOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  WalWriter writer(std::move(file).value(), epoch);
  DD_RETURN_IF_ERROR(
      writer.file_.Append(EncodeWalHeader(static_cast<uint32_t>(epoch))));
  DD_RETURN_IF_ERROR(writer.file_.Sync());
  return writer;
}

Result<WalWriter> WalWriter::OpenExisting(const std::string& path,
                                          uint64_t epoch, uint64_t size) {
  auto file = AppendOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  WalWriter writer(std::move(file).value(), epoch);
  if (writer.file_.size() < size) {
    return Status::Corruption("WAL shrank below its validated prefix");
  }
  if (writer.file_.size() > size) {
    DD_RETURN_IF_ERROR(writer.file_.Truncate(size));  // drop the torn tail
  }
  return writer;
}

Status WalWriter::Append(std::span<const WalRecord> records) {
  // A batch is typically a few KB to a few hundred KB; one huge batch
  // must not pin its buffer for the life of the log.
  constexpr size_t kMaxRetainedBuffer = size_t{4} << 20;
  buffer_.clear();
  for (const WalRecord& record : records) AppendWalRecord(record, &buffer_);
  const Status status = AppendRaw(buffer_);
  if (buffer_.capacity() > kMaxRetainedBuffer) std::string().swap(buffer_);
  return status;
}

Status WalWriter::AppendRaw(std::string_view framed_records) {
  return file_.Append(framed_records);
}

Status WalWriter::Sync() { return file_.Sync(); }

Status WalWriter::TruncateTo(uint64_t offset) {
  if (offset > file_.size()) {
    return Status::Internal("WAL truncate target beyond end of log");
  }
  return file_.Truncate(offset);
}

Status WalWriter::Reset(uint64_t epoch) {
  DD_RETURN_IF_ERROR(CheckEpochRange(epoch));
  DD_RETURN_IF_ERROR(file_.Truncate(0));
  DD_RETURN_IF_ERROR(
      file_.Append(EncodeWalHeader(static_cast<uint32_t>(epoch))));
  DD_RETURN_IF_ERROR(file_.Sync());
  epoch_ = epoch;
  return Status::OK();
}

}  // namespace dd
