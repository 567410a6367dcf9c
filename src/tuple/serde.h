#ifndef DCAPE_TUPLE_SERDE_H_
#define DCAPE_TUPLE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "tuple/tuple.h"

namespace dcape {

/// On-disk / on-wire layout generation for spill segments and tuple
/// batches. v1 is the original fixed-width encoding; v2 is the compact
/// encoding (varint lengths, delta-encoded timestamps, key-grouped
/// runs). Decoders sniff the version from the blob, so v1 blobs written
/// by older runs still deserialize.
enum class SegmentFormat : uint8_t {
  kV1 = 1,
  kV2 = 2,
};

/// Appends fixed-width little-endian primitives and length-prefixed
/// strings to a byte buffer. Used for spill files and simulated network
/// state transfer, so that spilled/relocated state is genuinely
/// byte-serialized (real data plane).
class ByteWriter {
 public:
  /// Writes into `out`, which must outlive the writer. Existing contents
  /// are preserved; new bytes are appended.
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s);

  /// LEB128 variable-length unsigned integer (1-10 bytes).
  void PutVarint(uint64_t v);
  /// Zigzag-mapped varint: small-magnitude signed values (deltas,
  /// counters) encode in one or two bytes regardless of sign.
  void PutZigzag(int64_t v);
  /// Varint-length-prefixed byte string (the v2 replacement for
  /// PutString's fixed u32 prefix).
  void PutVString(std::string_view s);

 private:
  std::string* out_;
};

/// Consumes primitives written by ByteWriter. All getters return
/// OutOfRange on truncated input instead of crashing, so corrupt spill
/// files surface as Status errors.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data), pos_(0) {}

  [[nodiscard]] StatusOr<uint8_t> GetU8();
  [[nodiscard]] StatusOr<uint32_t> GetU32();
  [[nodiscard]] StatusOr<uint64_t> GetU64();
  [[nodiscard]] StatusOr<int32_t> GetI32();
  [[nodiscard]] StatusOr<int64_t> GetI64();
  [[nodiscard]] StatusOr<std::string> GetString();

  [[nodiscard]] StatusOr<uint64_t> GetVarint();
  [[nodiscard]] StatusOr<int64_t> GetZigzag();
  [[nodiscard]] StatusOr<std::string> GetVString();
  /// GetVString without the copy: a view into the reader's input, valid
  /// as long as that input is.
  [[nodiscard]] StatusOr<std::string_view> GetVStringView();

  /// Consumes `n` bytes without decoding them (payload skipping in the
  /// section scanner / streaming cursors). OutOfRange on truncation.
  [[nodiscard]] Status Skip(size_t n);

  /// Bytes consumed so far (section-offset bookkeeping).
  size_t position() const { return pos_; }
  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  /// True when the whole buffer has been consumed.
  bool exhausted() const { return remaining() == 0; }

 private:
  std::string_view data_;
  size_t pos_;
};

/// Exact bytes the v1 fixed-width tuple encoding appends: the fixed
/// header plus the length-prefixed payload. Kept in sync with
/// Tuple::ByteSize() so byte accounting doubles as raw-serialized-size
/// accounting (and as the v2 reserve estimate — v2 is smaller in all but
/// adversarial cases).
size_t TupleSerializedSize(const Tuple& tuple);

/// Exact bytes EncodeTupleBatch appends in v1 format (an upper-bound
/// reserve estimate for v2).
size_t TupleBatchSerializedSize(const TupleBatch& batch);

/// Serializes one tuple in the v1 fixed-width layout (appends to `out`).
/// This per-tuple layout is also the trace-file record format, so it
/// stays fixed-width regardless of the segment format. Callers encoding
/// many tuples should pre-size `out` via the *SerializedSize helpers;
/// EncodeTuple itself never reserves.
DCAPE_HOT_PATH void EncodeTuple(const Tuple& tuple, std::string* out);

/// Deserializes one v1 tuple from the reader's current position.
[[nodiscard]] DCAPE_HOT_PATH StatusOr<Tuple> DecodeTuple(ByteReader* reader);

/// Serializes a batch. v2 (default): a magic+version header, then
/// varint/zigzag columns with per-batch delta encoding of seq and
/// timestamp. v1: stream id, count, then fixed-width tuples. Pre-sizes
/// `out`, so encoding appends without reallocating in the common case.
DCAPE_HOT_PATH void EncodeTupleBatch(const TupleBatch& batch, std::string* out,
                                     SegmentFormat format = SegmentFormat::kV2);

/// Deserializes a batch written by EncodeTupleBatch in either format
/// (the v2 magic cannot occur as a v1 prefix: it decodes as a negative
/// stream id).
[[nodiscard]] DCAPE_HOT_PATH StatusOr<TupleBatch> DecodeTupleBatch(
    std::string_view data);

}  // namespace dcape

#endif  // DCAPE_TUPLE_SERDE_H_
