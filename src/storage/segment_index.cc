#include "storage/segment_index.h"

#include <cstring>
#include <string>

#include "common/ids.h"

namespace dcape {
namespace {

/// Must match kGroupMagic in state/partition_group.cc (the v2 group
/// blob header); segment_format_test pins the bytes.
constexpr char kGroupMagic[4] = {0x44, 0x43, 0x50, static_cast<char>(0xB2)};

Status CheckStreamCount(int64_t num_streams) {
  if (num_streams < 2 || num_streams > kMaxStreams) {
    return Status::InvalidArgument(
        "partition group stream count out of range: " +
        std::to_string(num_streams));
  }
  return Status::OK();
}

StatusOr<SegmentSections> ScanV2(std::string_view blob) {
  ByteReader reader(blob);
  DCAPE_RETURN_IF_ERROR(reader.Skip(4));  // magic
  DCAPE_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != static_cast<uint8_t>(SegmentFormat::kV2)) {
    return Status::InvalidArgument("unsupported partition group version " +
                                   std::to_string(version));
  }
  DCAPE_ASSIGN_OR_RETURN(uint64_t partition, reader.GetVarint());
  (void)partition;
  DCAPE_ASSIGN_OR_RETURN(uint64_t raw_streams, reader.GetVarint());
  DCAPE_RETURN_IF_ERROR(CheckStreamCount(static_cast<int64_t>(raw_streams)));
  DCAPE_ASSIGN_OR_RETURN(int64_t outputs, reader.GetZigzag());
  (void)outputs;

  SegmentSections sections;
  sections.format = SegmentFormat::kV2;
  sections.num_streams = static_cast<int32_t>(raw_streams);
  sections.offsets.reserve(raw_streams + 1);
  for (int32_t s = 0; s < sections.num_streams; ++s) {
    sections.offsets.push_back(static_cast<int64_t>(reader.position()));
    DCAPE_ASSIGN_OR_RETURN(uint64_t num_keys, reader.GetVarint());
    if (num_keys > blob.size()) {
      return Status::InvalidArgument("key count exceeds input size");
    }
    for (uint64_t k = 0; k < num_keys; ++k) {
      DCAPE_ASSIGN_OR_RETURN(int64_t key, reader.GetZigzag());
      (void)key;
      DCAPE_ASSIGN_OR_RETURN(uint64_t run_length, reader.GetVarint());
      if (run_length > blob.size()) {
        return Status::InvalidArgument("run length exceeds input size");
      }
      for (uint64_t i = 0; i < run_length; ++i) {
        for (int field = 0; field < 4; ++field) {
          DCAPE_ASSIGN_OR_RETURN(int64_t v, reader.GetZigzag());
          (void)v;
        }
        DCAPE_ASSIGN_OR_RETURN(uint64_t payload_len, reader.GetVarint());
        DCAPE_RETURN_IF_ERROR(reader.Skip(payload_len));
      }
    }
  }
  sections.offsets.push_back(static_cast<int64_t>(reader.position()));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return sections;
}

StatusOr<SegmentSections> ScanV1(std::string_view blob) {
  ByteReader reader(blob);
  DCAPE_ASSIGN_OR_RETURN(int32_t partition, reader.GetI32());
  (void)partition;
  DCAPE_ASSIGN_OR_RETURN(int32_t raw_streams, reader.GetI32());
  DCAPE_RETURN_IF_ERROR(CheckStreamCount(raw_streams));
  DCAPE_ASSIGN_OR_RETURN(int64_t outputs, reader.GetI64());
  (void)outputs;

  SegmentSections sections;
  sections.format = SegmentFormat::kV1;
  sections.num_streams = raw_streams;
  sections.offsets.reserve(static_cast<size_t>(raw_streams) + 1);
  for (int32_t s = 0; s < raw_streams; ++s) {
    sections.offsets.push_back(static_cast<int64_t>(reader.position()));
    DCAPE_ASSIGN_OR_RETURN(int64_t stream_tuples, reader.GetI64());
    if (stream_tuples < 0 ||
        static_cast<uint64_t>(stream_tuples) > blob.size()) {
      return Status::InvalidArgument("tuple count exceeds input size");
    }
    for (int64_t i = 0; i < stream_tuples; ++i) {
      // v1 tuple: i32 stream id + five i64 fields + u32-length payload.
      DCAPE_RETURN_IF_ERROR(reader.Skip(44));
      DCAPE_ASSIGN_OR_RETURN(uint32_t payload_len, reader.GetU32());
      DCAPE_RETURN_IF_ERROR(reader.Skip(payload_len));
    }
  }
  sections.offsets.push_back(static_cast<int64_t>(reader.position()));
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return sections;
}

}  // namespace

StatusOr<SegmentSections> ScanSegmentSections(std::string_view blob) {
  if (blob.size() >= 4 && std::memcmp(blob.data(), kGroupMagic, 4) == 0) {
    return ScanV2(blob);
  }
  return ScanV1(blob);
}

}  // namespace dcape
