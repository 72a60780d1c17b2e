// Block serialization: the paper's abstract architecture may be
// realized "by either shared memory or message passing" (Section 3).
// The default channels move TupleBlock objects through shared memory;
// in serialized mode every block is encoded to one byte frame on send,
// carried in the TupleBlock's `wire` field through the same channel
// queue, and decoded on receive, proving nothing in the engine depends
// on shared address space (beyond the read-only symbol table, which a
// real deployment would replicate).
//
// Block frame (little-endian), sizes defined once in core/channel.h:
//   u32 predicate id | u16 (kBlockArityFlag | arity) | u32 count |
//   columnar values (count * u32 for column 0, then column 1, ...)
//   | u32 checksum
//
// The frame amortizes the header, checksum, and count bookkeeping over
// a whole run of same-predicate tuples, and its columnar value layout
// keeps each column's bytes contiguous on the wire. The decoder rejects
// a frame whose arity word lacks kBlockArityFlag.
//
// The trailing checksum is FNV-1a over the frame's preceding bytes, so
// a corrupted frame is *detected* at decode time and surfaces as a
// Status instead of silently feeding a wrong tuple into the fixpoint.
// Encode and decode are symmetric: both reject arity > kMaxWireArity.
#ifndef PDATALOG_CORE_WIRE_H_
#define PDATALOG_CORE_WIRE_H_

#include <cstdint>
#include <vector>

#include "core/channel.h"
#include "util/status.h"

namespace pdatalog {

// Appends the block-frame encoding of `block` to `out` (columnar value
// layout). Fails (appending nothing) on oversized arity, an empty or
// oversized tuple count, or a value buffer that does not match
// arity * count.
Status EncodeBlock(const TupleBlock& block, std::vector<uint8_t>* out);

// Decodes one block frame starting at `data[*offset]` into `block`
// (reusing its buffer and keeping the wire's columnar layout),
// advancing *offset. Fails on truncated input, a frame without the
// block marker, oversized arity or count, or checksum mismatch —
// `block` is left unspecified on failure and *offset is not advanced
// past the bad frame.
Status DecodeBlockInto(const std::vector<uint8_t>& data, size_t* offset,
                       TupleBlock* block);

// True iff the frame is at least a block header plus checksum long and
// ends in a u32 equal to the FNV-1a hash of the preceding bytes. Used by
// reliable channels to discard corrupted frames without fully decoding
// them.
bool FrameChecksumOk(const uint8_t* data, size_t size);

}  // namespace pdatalog

#endif  // PDATALOG_CORE_WIRE_H_
