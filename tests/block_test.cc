// Block wire protocol suite: the columnar TupleBlock frame
// (core/wire.h), the bulk Relation ingest it feeds (InsertBlock), the
// per-block channel fault/retransmit semantics, and the end-to-end
// promise that the flush threshold is invisible in the fixpoint —
// --block-tuples=1 (per-tuple frames) and large blocks must produce
// identical results on every scheme and channel realization.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cli/driver.h"
#include "core/wire.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "storage/relation.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::EncodedFrame;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

TupleBlock MakeBlock(Symbol predicate, int arity, uint32_t count) {
  TupleBlock block;
  block.predicate = predicate;
  block.arity = arity;
  for (uint32_t r = 0; r < count; ++r) {
    std::vector<Value> row(arity);
    for (int c = 0; c < arity; ++c) {
      row[c] = r * 31 + static_cast<uint32_t>(c) * 7 + 1;
    }
    block.Append(row.data(), arity);
  }
  return block;
}

// Layout-blind tuple comparison: decoded blocks keep the wire's
// columnar layout while send-side blocks are row-major, so equality is
// checked cell by cell through the layout-aware accessor.
void ExpectSameTuples(const TupleBlock& got, const TupleBlock& want) {
  ASSERT_EQ(got.arity, want.arity);
  ASSERT_EQ(got.count, want.count);
  for (uint32_t r = 0; r < want.count; ++r) {
    for (int c = 0; c < want.arity; ++c) {
      EXPECT_EQ(got.value(r, c), want.value(r, c))
          << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

TEST(BlockWireTest, RoundTripAcrossAritiesAndCounts) {
  // Every encodable arity, and values (predicate included) both small
  // and at the top of the u32 range: WireBytes() must equal the encoded
  // size, and the decode must reproduce every cell.
  for (int arity = 0; arity <= kMaxWireArity; ++arity) {
    for (uint32_t count : {1u, 2u, 7u, 300u}) {
      for (bool high : {false, true}) {
        TupleBlock block = MakeBlock(42, arity, count);
        if (high) {
          block.predicate = UINT32_MAX;
          for (Value& v : block.values) v = UINT32_MAX - v;
        }
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(EncodeBlock(block, &bytes).ok());
        EXPECT_EQ(bytes.size(), block.WireBytes()) << "arity=" << arity;
        EXPECT_EQ(bytes.size(), BlockWireBytes(arity, count));
        size_t offset = 0;
        TupleBlock decoded;
        Status status = DecodeBlockInto(bytes, &offset, &decoded);
        ASSERT_TRUE(status.ok()) << status.ToString() << " arity=" << arity
                                 << " count=" << count << " high=" << high;
        EXPECT_EQ(offset, bytes.size());
        EXPECT_EQ(decoded.predicate, block.predicate);
        EXPECT_TRUE(decoded.columnar) << "decode must keep the wire layout";
        ExpectSameTuples(decoded, block);
      }
    }
  }
}

TEST(BlockWireTest, DecodedBlocksKeepColumnarLayout) {
  // Decoding must not transpose: the value buffer is the wire body
  // verbatim — all of column 0, then column 1.
  TupleBlock block;
  block.predicate = 9;
  block.arity = 2;
  for (Value v : {1u, 2u, 3u}) {
    Value row[2] = {v, v * 100};
    block.Append(row, 2);
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(block, &bytes).ok());
  size_t offset = 0;
  TupleBlock decoded;
  ASSERT_TRUE(DecodeBlockInto(bytes, &offset, &decoded).ok());
  EXPECT_TRUE(decoded.columnar);
  EXPECT_EQ(decoded.values, (std::vector<Value>{1, 2, 3, 100, 200, 300}));
  // Re-encoding a columnar block reproduces the identical frame.
  std::vector<uint8_t> reencoded;
  ASSERT_TRUE(EncodeBlock(decoded, &reencoded).ok());
  EXPECT_EQ(reencoded, bytes);
}

TEST(BlockWireTest, WireLayoutIsColumnar) {
  // Rows (1,100), (2,200), (3,300): the wire body must hold column 0
  // first (1,2,3) and then column 1 (100,200,300), little-endian u32s.
  TupleBlock block;
  block.predicate = 9;
  block.arity = 2;
  for (Value v : {1u, 2u, 3u}) {
    Value row[2] = {v, v * 100};
    block.Append(row, 2);
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(block, &bytes).ok());
  ASSERT_EQ(bytes.size(), BlockWireBytes(2, 3));
  auto u32_at = [&](size_t i) {
    size_t p = kBlockHeaderBytes + i * kWireValueBytes;
    return static_cast<uint32_t>(bytes[p]) |
           static_cast<uint32_t>(bytes[p + 1]) << 8 |
           static_cast<uint32_t>(bytes[p + 2]) << 16 |
           static_cast<uint32_t>(bytes[p + 3]) << 24;
  };
  EXPECT_EQ(u32_at(0), 1u);
  EXPECT_EQ(u32_at(1), 2u);
  EXPECT_EQ(u32_at(2), 3u);
  EXPECT_EQ(u32_at(3), 100u);
  EXPECT_EQ(u32_at(4), 200u);
  EXPECT_EQ(u32_at(5), 300u);
}

TEST(BlockWireTest, FramesConcatenate) {
  // The receive loop decodes frames back to back from one buffer.
  std::vector<uint8_t> bytes;
  TupleBlock a = MakeBlock(1, 2, 5);
  TupleBlock b = MakeBlock(2, 3, 1);
  ASSERT_TRUE(EncodeBlock(a, &bytes).ok());
  ASSERT_TRUE(EncodeBlock(b, &bytes).ok());
  size_t offset = 0;
  TupleBlock decoded;
  ASSERT_TRUE(DecodeBlockInto(bytes, &offset, &decoded).ok());
  ExpectSameTuples(decoded, a);
  ASSERT_TRUE(DecodeBlockInto(bytes, &offset, &decoded).ok());
  ExpectSameTuples(decoded, b);
  EXPECT_EQ(offset, bytes.size());

  // A corrupt second frame fails on its own; the first still decodes.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[a.WireBytes() + kBlockHeaderBytes] ^= 0x10;
  offset = 0;
  ASSERT_TRUE(DecodeBlockInto(corrupt, &offset, &decoded).ok());
  EXPECT_FALSE(DecodeBlockInto(corrupt, &offset, &decoded).ok());
  EXPECT_EQ(offset, a.WireBytes());
}

TEST(BlockWireTest, TruncationRejectedAtEveryCut) {
  TupleBlock block = MakeBlock(3, 2, 4);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(block, &bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    size_t offset = 0;
    TupleBlock decoded;
    Status status = DecodeBlockInto(truncated, &offset, &decoded);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
    EXPECT_NE(status.message().find(cut < kBlockHeaderBytes ? "header"
                                                            : "body"),
              std::string::npos)
        << "cut=" << cut << ": " << status.message();
    EXPECT_EQ(offset, 0u) << "offset must not advance past a bad frame";
  }
}

TEST(BlockWireTest, EveryBitFlipDetected) {
  TupleBlock block = MakeBlock(7, 3, 6);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(block, &bytes).ok());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupted = bytes;
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      size_t offset = 0;
      TupleBlock decoded;
      EXPECT_FALSE(DecodeBlockInto(corrupted, &offset, &decoded).ok())
          << "byte=" << byte << " bit=" << bit;
      EXPECT_EQ(offset, 0u);
      EXPECT_FALSE(FrameChecksumOk(corrupted.data(), corrupted.size()))
          << "byte=" << byte << " bit=" << bit;
    }
  }
  EXPECT_TRUE(FrameChecksumOk(bytes.data(), bytes.size()));
}

TEST(BlockWireTest, FormatsAreMutuallyUnintelligible) {
  // A frame whose arity word lacks kBlockArityFlag — here the retired
  // per-tuple layout, u32 predicate 5 | u16 arity 2 | values 1, 2 |
  // checksum — must be rejected, never misread as a block.
  const std::vector<uint8_t> unflagged = {5, 0, 0, 0, 2, 0, 1, 0, 0,
                                          0, 2, 0, 0, 0, 0, 0, 0, 0};
  size_t offset = 0;
  TupleBlock decoded;
  Status status = DecodeBlockInto(unflagged, &offset, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not a tuple block"), std::string::npos);
  EXPECT_EQ(offset, 0u);
}

TEST(BlockWireTest, EncodeRejectsMalformedBlocks) {
  std::vector<uint8_t> bytes;
  TupleBlock empty = MakeBlock(1, 2, 1);
  empty.count = 0;
  empty.values.clear();
  EXPECT_FALSE(EncodeBlock(empty, &bytes).ok());

  TupleBlock wide = MakeBlock(1, kMaxWireArity, 1);
  wide.arity = kMaxWireArity + 1;
  EXPECT_FALSE(EncodeBlock(wide, &bytes).ok());

  TupleBlock mismatched = MakeBlock(1, 2, 3);
  mismatched.values.pop_back();
  EXPECT_FALSE(EncodeBlock(mismatched, &bytes).ok());
  EXPECT_TRUE(bytes.empty()) << "failed encodes must append nothing";
}

TEST(BlockWireTest, OversizedCountFieldRejected) {
  // A corrupted count or arity must be capped before the decoder sizes
  // any buffer from it.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(MakeBlock(1, 1, 1), &bytes).ok());
  std::vector<uint8_t> wide_count = bytes;
  for (int i = 0; i < 4; ++i) wide_count[6 + i] = 0xff;  // 2^32 - 1
  size_t offset = 0;
  TupleBlock decoded;
  Status status = DecodeBlockInto(wide_count, &offset, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("count exceeds"), std::string::npos);

  std::vector<uint8_t> wide_arity = bytes;
  wide_arity[4] = 0xff;  // flagged arity 0x80ff
  status = DecodeBlockInto(wide_arity, &offset, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("arity exceeds"), std::string::npos);
}

// ---------------------------------------------------------------------
// Bulk relation ingest
// ---------------------------------------------------------------------

TEST(InsertBlockTest, MatchesPerTupleInsert) {
  TupleBlock block = MakeBlock(1, 2, 500);
  Relation bulk(2);
  Relation reference(2);
  size_t inserted =
      bulk.InsertBlock(block.values.data(), block.arity, block.count);
  size_t ref_inserted = 0;
  for (uint32_t r = 0; r < block.count; ++r) {
    ref_inserted += reference.InsertView(block.row(r), block.arity);
  }
  EXPECT_EQ(inserted, ref_inserted);
  ASSERT_EQ(bulk.size(), reference.size());
  for (size_t r = 0; r < reference.size(); ++r) {
    EXPECT_TRUE(bulk.Contains(reference.row(r)));
  }
}

TEST(InsertBlockTest, DedupsWithinAndAcrossBlocks) {
  TupleBlock block;
  block.arity = 2;
  Value rows[][2] = {{1, 2}, {3, 4}, {1, 2}, {5, 6}};  // internal dup
  for (const Value* row : {rows[0], rows[1], rows[2], rows[3]}) {
    block.Append(row, 2);
  }
  Relation rel(2);
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 2, block.count), 3u);
  EXPECT_EQ(rel.size(), 3u);
  // A second ingest of the same block inserts nothing new.
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 2, block.count), 0u);
  EXPECT_EQ(rel.size(), 3u);
}

TEST(InsertBlockTest, LargeBlockAfterSmallInserts) {
  // Exercises the single up-front dedup growth across several doublings.
  Relation rel(1);
  Value seed = 9999999;
  rel.InsertView(&seed, 1);
  TupleBlock block = MakeBlock(1, 1, 20000);
  EXPECT_EQ(rel.InsertBlock(block.values.data(), 1, block.count),
            block.count);
  EXPECT_EQ(rel.size(), block.count + 1);
}

TEST(InsertBlockTest, ColumnarIngestMatchesRowMajor) {
  // The worker receive path hands InsertBlock a decoded (columnar)
  // block; ingesting it must produce the same relation as ingesting
  // the original row-major block, row ids included.
  TupleBlock sent = MakeBlock(1, 3, 700);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeBlock(sent, &bytes).ok());
  TupleBlock received;
  size_t offset = 0;
  ASSERT_TRUE(DecodeBlockInto(bytes, &offset, &received).ok());
  ASSERT_TRUE(received.columnar);

  Relation from_rows(3), from_cols(3);
  size_t a = from_rows.InsertBlock(sent.values.data(), sent.arity,
                                   sent.count, /*columnar=*/false);
  size_t b = from_cols.InsertBlock(received.values.data(), received.arity,
                                   received.count, /*columnar=*/true);
  EXPECT_EQ(a, b);
  ASSERT_EQ(from_rows.size(), from_cols.size());
  for (size_t r = 0; r < from_rows.size(); ++r) {
    EXPECT_EQ(from_rows.row(r), from_cols.row(r)) << "row " << r;
  }
}

TEST(InsertBlockTest, DuplicatesSplitAcrossTwoReceivedBlocks) {
  // Exactly-once under retransmission overlap: two received blocks
  // share a run of tuples (e.g. a conservative resend); the second
  // ingest must add only the genuinely new suffix.
  auto columnar = [](const TupleBlock& b) {
    std::vector<uint8_t> bytes;
    Status s = EncodeBlock(b, &bytes);
    EXPECT_TRUE(s.ok());
    TupleBlock out;
    size_t offset = 0;
    s = DecodeBlockInto(bytes, &offset, &out);
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(out.columnar);
    return out;
  };
  TupleBlock first, second;
  first.predicate = second.predicate = 1;
  first.arity = second.arity = 2;
  for (Value i = 0; i < 40; ++i) {
    Value row[2] = {i, i + 100};
    first.Append(row, 2);
  }
  for (Value i = 25; i < 70; ++i) {  // rows 25..39 overlap the first
    Value row[2] = {i, i + 100};
    second.Append(row, 2);
  }
  TupleBlock c1 = columnar(first), c2 = columnar(second);
  Relation rel(2);
  EXPECT_EQ(rel.InsertBlock(c1.values.data(), 2, c1.count, true), 40u);
  EXPECT_EQ(rel.InsertBlock(c2.values.data(), 2, c2.count, true), 30u);
  EXPECT_EQ(rel.size(), 70u);
  for (Value i = 0; i < 70; ++i) {
    EXPECT_TRUE(rel.Contains(Tuple{i, i + 100})) << "tuple " << i;
  }
  // A full duplicate resend of either block is a no-op.
  EXPECT_EQ(rel.InsertBlock(c2.values.data(), 2, c2.count, true), 0u);
  EXPECT_EQ(rel.size(), 70u);
}

// ---------------------------------------------------------------------
// Per-block channel semantics under faults
// ---------------------------------------------------------------------

TEST(BlockChannelTest, BlockIsOneFrameManyTuples) {
  Channel channel;
  channel.Send(MakeBlock(1, 2, 10));
  EXPECT_EQ(channel.total_sent(), 10u);
  EXPECT_EQ(channel.total_frames(), 1u);
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 10));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 10u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].count, 10u);
}

TEST(BlockChannelTest, DropLosesTheWholeBlock) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.Send(MakeBlock(1, 2, 8));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 0u);
  // One injector decision per frame: 8 tuples lost, 1 drop counted.
  EXPECT_EQ(channel.fault_counters().dropped, 1u);
  // Logical sends stay tuple-granular for the termination detector.
  EXPECT_EQ(channel.total_sent(), 8u);
}

TEST(BlockChannelTest, OneRetransmitRecoversTheWholeBlock) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  TupleBlock block = MakeBlock(1, 2, 8);
  channel.Send(block);
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 0u);
  EXPECT_EQ(channel.RetransmitUnacked(), 1u);
  EXPECT_EQ(channel.Drain(&out), 8u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].values, block.values);
}

TEST(BlockChannelTest, DuplicatedBlockDiscardedOnceReliable) {
  Channel channel;
  FaultSpec spec;
  spec.duplicate = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  channel.Send(MakeBlock(1, 2, 4));
  channel.Send(MakeBlock(1, 2, 3));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 7u);  // each block delivered once
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(channel.fault_counters().duplicates_discarded, 2u);
}

TEST(BlockChannelTest, CorruptedSerializedBlockDiscardedThenRecovered) {
  Channel channel;
  FaultSpec spec;
  spec.corrupt = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  TupleBlock block = MakeBlock(1, 2, 6);
  channel.Send(EncodedFrame(block));
  EXPECT_EQ(channel.total_sent(), 6u);
  std::vector<TupleBlock> frames;
  // The injector flipped a byte; the reliable receiver discards the
  // frame instead of surfacing it.
  EXPECT_EQ(channel.Drain(&frames), 0u);
  EXPECT_EQ(channel.fault_counters().corrupt_discarded, 1u);
  // The resend bypasses injection and arrives intact.
  EXPECT_EQ(channel.RetransmitUnacked(), 1u);
  ASSERT_EQ(channel.Drain(&frames), 6u);
  ASSERT_EQ(frames.size(), 1u);
  size_t offset = 0;
  TupleBlock decoded;
  ASSERT_TRUE(DecodeBlockInto(frames[0].wire, &offset, &decoded).ok());
  ExpectSameTuples(decoded, block);
}

// ---------------------------------------------------------------------
// End-to-end exactness: the flush threshold must be invisible
// ---------------------------------------------------------------------

TEST(BlockExactnessTest, AncestorFixpointInvariantAcrossBlockSizes) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 60, 180, 11);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  for (int block_tuples : {1, 3, 256, 4096}) {
    for (bool use_threads : {true, false}) {
      for (bool serialize : {false, true}) {
        ParallelOptions options;
        options.block_tuples = block_tuples;
        options.use_threads = use_threads;
        options.serialize_messages = serialize;
        StatusOr<ParallelResult> result =
            RunParallel(bundle, &setup->edb, options);
        ASSERT_TRUE(result.ok())
            << result.status().ToString() << " block=" << block_tuples;
        EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()),
                  expected)
            << "block=" << block_tuples << " threads=" << use_threads
            << " serialized=" << serialize;
      }
    }
  }
}

TEST(BlockExactnessTest, PerTupleAndLargeBlocksAgreeOnPointsTo) {
  // Driver-level check on a multi-rule, mutually recursive program
  // (general scheme): --block-tuples=1 and a large threshold must print
  // the identical pt/heap_pt dump.
  const char* source =
      "new(v1, o1). new(v4, o2).\n"
      "assign(v2, v1). assign(v5, v4). assign(v6, v5).\n"
      "store(v2, v1). store(v5, v6).\n"
      "load(v3, v2). load(v7, v5).\n"
      "pt(V, O) :- new(V, O).\n"
      "pt(V, O) :- assign(V, W), pt(W, O).\n"
      "pt(V, O) :- load(V, P), pt(P, A), heap_pt(A, O).\n"
      "heap_pt(A, O) :- store(P, W), pt(P, A), pt(W, O).\n";
  std::string reference;
  for (const char* block_flag :
       {"--block-tuples=1", "--block-tuples=8", "--block-tuples=65536"}) {
    StatusOr<CliOptions> options = ParseCliArgs(
        {"--scheme=general", block_flag, "--dump=pt", "p.dl"});
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    StatusOr<std::string> report = RunCli(*options, source);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    std::string dump = report->substr(report->find("pt:"));
    if (reference.empty()) {
      reference = dump;
      EXPECT_NE(dump.find("(v3, o1)"), std::string::npos);
    } else {
      EXPECT_EQ(dump, reference) << block_flag;
    }
  }
}

TEST(BlockExactnessTest, FaultMatrixStaysExactInBlockMode) {
  // Every single-fault mode, with retransmit: the block-mode fixpoint
  // must equal the serial result; without retransmit, a lossy mode must
  // surface a diagnostic, never a silently wrong answer.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 120, 23);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);

  struct Mode {
    const char* name;
    FaultSpec spec;
    bool lossy;  // without retransmit, drops tuples outright
  };
  std::vector<Mode> modes;
  modes.push_back({"drop", {}, true});
  modes.back().spec.drop = 0.3;
  modes.push_back({"duplicate", {}, false});
  modes.back().spec.duplicate = 0.3;
  modes.push_back({"reorder", {}, false});
  modes.back().spec.reorder = 0.5;
  modes.push_back({"delay", {}, false});
  modes.back().spec.delay = 0.3;
  modes.back().spec.delay_polls = 2;
  modes.push_back({"corrupt", {}, true});
  modes.back().spec.corrupt = 0.3;

  for (const Mode& mode : modes) {
    for (int block_tuples : {1, 64}) {
      ParallelOptions options;
      options.block_tuples = block_tuples;
      options.faults = mode.spec;
      options.serialize_messages = mode.spec.corrupt > 0;
      options.retransmit = true;
      StatusOr<ParallelResult> reliable =
          RunParallel(bundle, &setup->edb, options);
      ASSERT_TRUE(reliable.ok())
          << mode.name << " block=" << block_tuples << ": "
          << reliable.status().ToString();
      EXPECT_EQ(DumpOutput(*reliable, setup->symbols, setup->anc()),
                expected)
          << mode.name << " block=" << block_tuples;

      if (!mode.lossy) continue;
      options.retransmit = false;
      StatusOr<ParallelResult> lossy =
          RunParallel(bundle, &setup->edb, options);
      EXPECT_FALSE(lossy.ok())
          << mode.name << " block=" << block_tuples
          << " must detect its losses";
    }
  }
}

// The block protocol's payoff, on a deterministic schedule: the cross
// traffic is fixed by the scheme, so the threshold may only change how
// it is framed — one frame per tuple at 1, strictly fewer frames as the
// threshold grows.
TEST(BlockBatchingTest, FramesShrinkWhileCrossTuplesHold) {
  for (AncestorScheme scheme :
       {AncestorScheme::kExample2, AncestorScheme::kExample3}) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 60, 180, 11);
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    const bool broadcast = scheme == AncestorScheme::kExample2;
    std::vector<uint64_t> frames;
    uint64_t cross_tuples = 0;
    for (int block_tuples : {1, 8, 256}) {
      ParallelOptions options;
      options.block_tuples = block_tuples;
      options.use_threads = false;  // deterministic round-robin schedule
      StatusOr<ParallelResult> result =
          RunParallel(bundle, &setup->edb, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (block_tuples == 1) {
        cross_tuples = result->cross_tuples;
        EXPECT_GT(cross_tuples, 0u) << "broadcast=" << broadcast;
        EXPECT_EQ(result->cross_frames, result->cross_tuples)
            << "broadcast=" << broadcast;
      }
      EXPECT_EQ(result->cross_tuples, cross_tuples)
          << "broadcast=" << broadcast << " block=" << block_tuples;
      frames.push_back(result->cross_frames);
    }
    EXPECT_GT(frames[0], frames[1]) << "broadcast=" << broadcast;
    EXPECT_GT(frames[1], frames[2]) << "broadcast=" << broadcast;
  }
}

TEST(BlockExactnessTest, RejectsOutOfRangeThreshold) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  for (int bad : {0, -1, static_cast<int>(kMaxBlockTuples) + 1}) {
    ParallelOptions options;
    options.block_tuples = bad;
    EXPECT_FALSE(RunParallel(bundle, &setup->edb, options).ok()) << bad;
  }
}

TEST(BlockCliTest, BlockTuplesFlagParsedAndValidated) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--block-tuples=512", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->block_tuples, 512);
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=-3", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=9999999", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--block-tuples=abc", "p.dl"}).ok());
}

}  // namespace
}  // namespace pdatalog
