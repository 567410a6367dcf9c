#include "tuple/serde.h"

#include <cstring>

namespace dcape {
namespace {

/// v2 tuple-batch magic. Read as the leading v1 field (i32 stream id,
/// little endian) it is negative, which no v1 encoder ever produces, so
/// version sniffing cannot misfire on a valid v1 blob.
constexpr char kBatchMagic[4] = {0x44, 0x43, 0x42, static_cast<char>(0xB2)};

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

void ByteWriter::PutU32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_->append(buf, 4);
}

void ByteWriter::PutU64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_->append(buf, 8);
}

void ByteWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void ByteWriter::PutVarint(uint64_t v) {
  char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  out_->append(buf, static_cast<size_t>(n));
}

void ByteWriter::PutZigzag(int64_t v) { PutVarint(ZigzagEncode(v)); }

void ByteWriter::PutVString(std::string_view s) {
  PutVarint(s.size());
  out_->append(s.data(), s.size());
}

Status ByteReader::Skip(size_t n) {
  if (remaining() < n) {
    return Status::OutOfRange("truncated input skipping bytes");
  }
  pos_ += n;
  return Status::OK();
}

StatusOr<uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) {
    return Status::OutOfRange("truncated input reading u8");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) {
    return Status::OutOfRange("truncated input reading u32");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return Status::OutOfRange("truncated input reading u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<int32_t> ByteReader::GetI32() {
  DCAPE_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

StatusOr<int64_t> ByteReader::GetI64() {
  DCAPE_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

StatusOr<std::string> ByteReader::GetString() {
  DCAPE_ASSIGN_OR_RETURN(uint32_t size, GetU32());
  if (remaining() < size) {
    return Status::OutOfRange("truncated input reading string body");
  }
  std::string s(data_.substr(pos_, size));
  pos_ += size;
  return s;
}

StatusOr<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return Status::OutOfRange("truncated input reading varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0xFE) != 0) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      return Status::InvalidArgument("varint longer than 10 bytes");
    }
  }
}

StatusOr<int64_t> ByteReader::GetZigzag() {
  DCAPE_ASSIGN_OR_RETURN(uint64_t v, GetVarint());
  return ZigzagDecode(v);
}

StatusOr<std::string> ByteReader::GetVString() {
  DCAPE_ASSIGN_OR_RETURN(std::string_view s, GetVStringView());
  return std::string(s);
}

StatusOr<std::string_view> ByteReader::GetVStringView() {
  DCAPE_ASSIGN_OR_RETURN(uint64_t size, GetVarint());
  if (size > remaining()) {
    return Status::OutOfRange("truncated input reading vstring body");
  }
  const std::string_view s = data_.substr(pos_, static_cast<size_t>(size));
  pos_ += static_cast<size_t>(size);
  return s;
}

size_t TupleSerializedSize(const Tuple& tuple) {
  // i32 stream + 5 x i64 + u32 payload length prefix + payload bytes.
  return 4 + 5 * 8 + 4 + tuple.payload.size();
}

size_t TupleBatchSerializedSize(const TupleBatch& batch) {
  size_t total = 4 + 4;  // i32 stream id + u32 count
  for (const Tuple& t : batch.tuples) total += TupleSerializedSize(t);
  return total;
}

void EncodeTuple(const Tuple& tuple, std::string* out) {
  ByteWriter writer(out);
  writer.PutI32(tuple.stream_id);
  writer.PutI64(tuple.seq);
  writer.PutI64(tuple.join_key);
  writer.PutI64(tuple.timestamp);
  writer.PutI64(tuple.value);
  writer.PutI64(tuple.category);
  writer.PutString(tuple.payload);
}

StatusOr<Tuple> DecodeTuple(ByteReader* reader) {
  Tuple t;
  DCAPE_ASSIGN_OR_RETURN(t.stream_id, reader->GetI32());
  DCAPE_ASSIGN_OR_RETURN(t.seq, reader->GetI64());
  DCAPE_ASSIGN_OR_RETURN(t.join_key, reader->GetI64());
  DCAPE_ASSIGN_OR_RETURN(t.timestamp, reader->GetI64());
  DCAPE_ASSIGN_OR_RETURN(t.value, reader->GetI64());
  DCAPE_ASSIGN_OR_RETURN(t.category, reader->GetI64());
  DCAPE_ASSIGN_OR_RETURN(t.payload, reader->GetString());
  return t;
}

namespace {

void EncodeTupleBatchV1(const TupleBatch& batch, std::string* out) {
  out->reserve(out->size() + TupleBatchSerializedSize(batch));
  ByteWriter writer(out);
  writer.PutI32(batch.stream_id);
  writer.PutU32(static_cast<uint32_t>(batch.tuples.size()));
  for (const Tuple& t : batch.tuples) EncodeTuple(t, out);
}

/// v2 batch: magic, version, stream id, count, then a delta-coded tuple
/// stream. Within the batch, seq and timestamp are non-decreasing in the
/// common case (arrival order), so their zigzag deltas are 1-2 bytes;
/// each tuple's stream id is stored as a delta against the batch's (0
/// for every well-formed batch).
void EncodeTupleBatchV2(const TupleBatch& batch, std::string* out) {
  out->reserve(out->size() + 8 + batch.tuples.size() * 16 +
               (batch.tuples.empty() ? 0
                                     : batch.tuples.size() *
                                           batch.tuples.front().payload.size()));
  ByteWriter writer(out);
  out->append(kBatchMagic, 4);
  writer.PutU8(static_cast<uint8_t>(SegmentFormat::kV2));
  writer.PutZigzag(batch.stream_id);
  writer.PutVarint(batch.tuples.size());
  int64_t prev_seq = 0;
  int64_t prev_ts = 0;
  for (const Tuple& t : batch.tuples) {
    writer.PutZigzag(t.stream_id - batch.stream_id);
    writer.PutZigzag(t.seq - prev_seq);
    writer.PutZigzag(t.join_key);
    writer.PutZigzag(t.timestamp - prev_ts);
    writer.PutZigzag(t.value);
    writer.PutZigzag(t.category);
    writer.PutVString(t.payload);
    prev_seq = t.seq;
    prev_ts = t.timestamp;
  }
}

StatusOr<TupleBatch> DecodeTupleBatchV2(std::string_view data) {
  ByteReader reader(data.substr(4));  // past the magic
  DCAPE_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != static_cast<uint8_t>(SegmentFormat::kV2)) {
    return Status::InvalidArgument("unsupported tuple batch version " +
                                   std::to_string(version));
  }
  TupleBatch batch;
  DCAPE_ASSIGN_OR_RETURN(int64_t stream, reader.GetZigzag());
  batch.stream_id = static_cast<StreamId>(stream);
  DCAPE_ASSIGN_OR_RETURN(uint64_t count, reader.GetVarint());
  // A tuple is at least 7 bytes in v2; bound the reserve by the input so
  // a corrupt count cannot trigger a huge allocation.
  if (count > data.size()) {
    return Status::InvalidArgument("tuple batch count exceeds input size");
  }
  batch.tuples.reserve(static_cast<size_t>(count));
  int64_t prev_seq = 0;
  int64_t prev_ts = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Tuple t;
    DCAPE_ASSIGN_OR_RETURN(int64_t stream_delta, reader.GetZigzag());
    t.stream_id = static_cast<StreamId>(stream + stream_delta);
    DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader.GetZigzag());
    t.seq = prev_seq + seq_delta;
    DCAPE_ASSIGN_OR_RETURN(t.join_key, reader.GetZigzag());
    DCAPE_ASSIGN_OR_RETURN(int64_t ts_delta, reader.GetZigzag());
    t.timestamp = prev_ts + ts_delta;
    DCAPE_ASSIGN_OR_RETURN(t.value, reader.GetZigzag());
    DCAPE_ASSIGN_OR_RETURN(t.category, reader.GetZigzag());
    DCAPE_ASSIGN_OR_RETURN(t.payload, reader.GetVString());
    prev_seq = t.seq;
    prev_ts = t.timestamp;
    batch.tuples.push_back(std::move(t));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after tuple batch");
  }
  return batch;
}

}  // namespace

void EncodeTupleBatch(const TupleBatch& batch, std::string* out,
                      SegmentFormat format) {
  if (format == SegmentFormat::kV1) {
    EncodeTupleBatchV1(batch, out);
  } else {
    EncodeTupleBatchV2(batch, out);
  }
}

StatusOr<TupleBatch> DecodeTupleBatch(std::string_view data) {
  if (data.size() >= 4 && std::memcmp(data.data(), kBatchMagic, 4) == 0) {
    return DecodeTupleBatchV2(data);
  }
  ByteReader reader(data);
  TupleBatch batch;
  DCAPE_ASSIGN_OR_RETURN(batch.stream_id, reader.GetI32());
  DCAPE_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
  batch.tuples.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DCAPE_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&reader));
    batch.tuples.push_back(std::move(t));
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after tuple batch");
  }
  return batch;
}

}  // namespace dcape
