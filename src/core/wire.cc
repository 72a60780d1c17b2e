#include "core/wire.h"

namespace pdatalog {

namespace {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

bool GetU32(const std::vector<uint8_t>& data, size_t* offset, uint32_t* v) {
  if (*offset + 4 > data.size()) return false;
  *v = static_cast<uint32_t>(data[*offset]) |
       static_cast<uint32_t>(data[*offset + 1]) << 8 |
       static_cast<uint32_t>(data[*offset + 2]) << 16 |
       static_cast<uint32_t>(data[*offset + 3]) << 24;
  *offset += 4;
  return true;
}

bool GetU16(const std::vector<uint8_t>& data, size_t* offset, uint16_t* v) {
  if (*offset + 2 > data.size()) return false;
  *v = static_cast<uint16_t>(data[*offset] | data[*offset + 1] << 8);
  *offset += 2;
  return true;
}

// FNV-1a, 32-bit.
uint32_t Fnv1a(const uint8_t* data, size_t size) {
  uint32_t h = 0x811c9dc5u;
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 0x01000193u;
  }
  return h;
}

}  // namespace

Status EncodeBlock(const TupleBlock& block, std::vector<uint8_t>* out) {
  if (block.arity < 0 || block.arity > kMaxWireArity) {
    return Status::InvalidArgument(
        "block arity " + std::to_string(block.arity) +
        " exceeds wire limit " + std::to_string(kMaxWireArity));
  }
  if (block.count == 0) {
    return Status::InvalidArgument("refusing to encode an empty block");
  }
  if (block.count > kMaxBlockTuples) {
    return Status::InvalidArgument(
        "block tuple count " + std::to_string(block.count) +
        " exceeds wire limit " + std::to_string(kMaxBlockTuples));
  }
  if (block.values.size() !=
      static_cast<size_t>(block.arity) * block.count) {
    return Status::InvalidArgument(
        "block value buffer does not match arity * count");
  }
  size_t start = out->size();
  out->reserve(start + block.WireBytes());
  PutU32(block.predicate, out);
  PutU16(static_cast<uint16_t>(kBlockArityFlag | block.arity), out);
  PutU32(block.count, out);
  if (block.columnar) {
    // Already column-major (a decoded block being re-encoded): the wire
    // body is a straight copy.
    for (Value v : block.values) PutU32(v, out);
  } else {
    // Transpose the row-major accumulation buffer to the columnar wire
    // layout: all of column 0's values, then column 1's, ...
    for (int c = 0; c < block.arity; ++c) {
      const Value* v = block.values.data() + c;
      for (uint32_t r = 0; r < block.count; ++r, v += block.arity) {
        PutU32(*v, out);
      }
    }
  }
  PutU32(Fnv1a(out->data() + start, out->size() - start), out);
  return Status::Ok();
}

Status DecodeBlockInto(const std::vector<uint8_t>& data, size_t* offset,
                       TupleBlock* block) {
  size_t start = *offset;
  uint32_t predicate;
  uint16_t tag;
  uint32_t count;
  if (!GetU32(data, offset, &predicate) || !GetU16(data, offset, &tag) ||
      !GetU32(data, offset, &count)) {
    *offset = start;
    return Status::InvalidArgument("truncated block header");
  }
  if ((tag & kBlockArityFlag) == 0) {
    *offset = start;
    return Status::InvalidArgument(
        "frame is not a tuple block (missing block marker)");
  }
  int arity = tag & ~kBlockArityFlag;
  if (arity > kMaxWireArity) {
    *offset = start;
    return Status::InvalidArgument("block arity exceeds " +
                                   std::to_string(kMaxWireArity));
  }
  if (count == 0) {
    *offset = start;
    return Status::InvalidArgument("empty block frame");
  }
  if (count > kMaxBlockTuples) {
    *offset = start;
    return Status::InvalidArgument("block tuple count exceeds " +
                                   std::to_string(kMaxBlockTuples));
  }
  size_t body = static_cast<size_t>(arity) * count * kWireValueBytes;
  if (data.size() - *offset < body + kWireChecksumBytes) {
    *offset = start;
    return Status::InvalidArgument("truncated block body");
  }
  // Verify the checksum before touching the caller's buffer, so a
  // corrupt frame never partially overwrites a previous good decode.
  uint32_t stored =
      static_cast<uint32_t>(data[*offset + body]) |
      static_cast<uint32_t>(data[*offset + body + 1]) << 8 |
      static_cast<uint32_t>(data[*offset + body + 2]) << 16 |
      static_cast<uint32_t>(data[*offset + body + 3]) << 24;
  if (stored != Fnv1a(data.data() + start, *offset - start + body)) {
    *offset = start;
    return Status::InvalidArgument("block checksum mismatch");
  }
  block->predicate = predicate;
  block->arity = arity;
  block->count = count;
  block->columnar = true;
  block->values.resize(static_cast<size_t>(arity) * count);
  // Keep the wire's column-major layout: one linear little-endian
  // decode, no transpose — Relation::InsertBlock appends the columns
  // directly.
  const uint8_t* p = data.data() + *offset;
  Value* v = block->values.data();
  for (size_t i = 0, total = static_cast<size_t>(arity) * count; i < total;
       ++i, p += 4) {
    v[i] = static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  }
  *offset += body + kWireChecksumBytes;
  return Status::Ok();
}

bool FrameChecksumOk(const uint8_t* data, size_t size) {
  if (size < kBlockHeaderBytes + kWireChecksumBytes) return false;
  size_t body = size - kWireChecksumBytes;
  uint32_t stored = static_cast<uint32_t>(data[body]) |
                    static_cast<uint32_t>(data[body + 1]) << 8 |
                    static_cast<uint32_t>(data[body + 2]) << 16 |
                    static_cast<uint32_t>(data[body + 3]) << 24;
  return stored == Fnv1a(data, body);
}

}  // namespace pdatalog
