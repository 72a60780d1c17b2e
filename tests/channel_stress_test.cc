// Concurrency stress for the channel substrate: many senders racing one
// drainer must lose no frames, and the monotone total_sent /
// total_frames / total_bytes counters must come out exact — the
// termination detector (Mattern counting) relies on exactly this
// agreement. Every test moves TupleBlocks (or their encoded frames), the
// channel's only unit of transfer.
#include <cstdint>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "core/wire.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"

namespace pdatalog {
namespace {

using testing_util::RowBlock;

// A recognizable block: `arity` columns, `count` rows, every cell
// derived from (seq, row, col) so a torn or reordered frame cannot
// validate.
TupleBlock PatternBlock(uint32_t seq, int arity, uint32_t count) {
  TupleBlock block;
  block.predicate = 7;
  block.arity = arity;
  std::vector<Value> row(arity);
  for (uint32_t r = 0; r < count; ++r) {
    for (int c = 0; c < arity; ++c) {
      row[c] = static_cast<Value>(seq * 31 + r * 7 + c);
    }
    block.Append(row.data(), arity);
  }
  return block;
}

void CheckPatternBlock(const TupleBlock& block, uint32_t seq, int arity,
                       uint32_t count) {
  ASSERT_EQ(block.arity, arity);
  ASSERT_EQ(block.count, count);
  for (uint32_t r = 0; r < count; ++r) {
    for (int c = 0; c < arity; ++c) {
      ASSERT_EQ(block.value(r, c), static_cast<Value>(seq * 31 + r * 7 + c))
          << "seq " << seq << " row " << r << " col " << c;
    }
  }
}

TEST(ChannelStressTest, ManySendersOneDrainerLosesNothing) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 5000;
  constexpr uint64_t kFrames = static_cast<uint64_t>(kSenders) * kPerSender;
  Channel channel;

  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int i = 0; i < kPerSender; ++i) {
        channel.SendBlock(RowBlock(static_cast<Symbol>(s),
                                   {static_cast<Value>(s),
                                    static_cast<Value>(i)}));
      }
    });
  }

  // Drain concurrently with the senders, like a worker's round loop.
  std::vector<TupleBlock> received;
  uint64_t tuples = 0;
  while (tuples < kFrames) tuples += channel.DrainBlocks(&received);
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(channel.DrainBlocks(&received), 0u);  // nothing left
  ASSERT_EQ(received.size(), kFrames);

  // Every (sender, sequence) pair arrives exactly once, in per-sender
  // FIFO order (each channel is a reliable ordered link).
  std::vector<std::vector<bool>> seen(kSenders,
                                      std::vector<bool>(kPerSender, false));
  std::vector<int> last(kSenders, -1);
  for (const TupleBlock& b : received) {
    ASSERT_EQ(b.count, 1u);
    int s = static_cast<int>(b.predicate);
    int i = static_cast<int>(b.value(0, 1));
    EXPECT_FALSE(seen[s][i]) << "duplicate (" << s << ", " << i << ")";
    seen[s][i] = true;
    EXPECT_GT(i, last[s]) << "reordered within sender " << s;
    last[s] = i;
  }
  EXPECT_EQ(channel.total_sent(), kFrames);
  EXPECT_EQ(channel.total_frames(), kFrames);
  EXPECT_EQ(channel.total_bytes(), kFrames * BlockWireBytes(2, 1));
  EXPECT_FALSE(channel.HasPending());
}

TEST(ChannelStressTest, BatchedSendersCountExactly) {
  // Each send is one kBatchSize-tuple block: tuples and frames are
  // counted separately, and bytes follow the block frame layout.
  constexpr int kSenders = 6;
  constexpr int kBatches = 200;
  constexpr uint32_t kBatchSize = 25;
  constexpr uint64_t kFrames = static_cast<uint64_t>(kSenders) * kBatches;
  Channel channel;

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int b = 0; b < kBatches; ++b) {
        channel.SendBlock(PatternBlock(s * kBatches + b, 2, kBatchSize));
      }
    });
  }

  std::vector<TupleBlock> received;
  uint64_t tuples = 0;
  while (tuples < kFrames * kBatchSize) {
    tuples += channel.DrainBlocks(&received);
  }
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(channel.DrainBlocks(&received), 0u);
  ASSERT_EQ(received.size(), kFrames);
  for (const TupleBlock& b : received) {
    // Recover the block's sequence from its first cell.
    CheckPatternBlock(b, b.value(0, 0) / 31, 2, kBatchSize);
  }

  EXPECT_EQ(channel.total_sent(), kFrames * kBatchSize);
  EXPECT_EQ(channel.total_frames(), kFrames);
  EXPECT_EQ(channel.total_bytes(), kFrames * BlockWireBytes(2, kBatchSize));
}

TEST(ChannelStressTest, ReliableChannelRecoversUnderConcurrentFaults) {
  // One sender races one drainer over a lossy reliable channel. The
  // sender interleaves retransmits of unacknowledged frames; the
  // receiver must still see every block exactly once and in order.
  constexpr int kBlocks = 4000;
  Channel channel;
  FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.reorder = 0.1;
  spec.delay = 0.1;
  spec.delay_polls = 2;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();

  std::thread sender([&channel] {
    for (int i = 0; i < kBlocks; ++i) {
      channel.SendBlock(RowBlock(1, {static_cast<Value>(i), 0}));
      if ((i & 63) == 0) channel.RetransmitUnacked();
    }
  });

  std::vector<TupleBlock> received;
  while (received.size() < kBlocks) {
    if (channel.DrainBlocks(&received) == 0) channel.RetransmitUnacked();
  }
  sender.join();
  channel.DrainBlocks(&received);
  ASSERT_EQ(received.size(), static_cast<size_t>(kBlocks));
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(received[i].value(0, 0), static_cast<Value>(i)) << "at " << i;
  }
  // Retransmissions and injected copies are not logical sends.
  EXPECT_EQ(channel.total_sent(), static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(channel.total_frames(), static_cast<uint64_t>(kBlocks));
  EXPECT_EQ(channel.total_bytes(), kBlocks * BlockWireBytes(2, 1));
  EXPECT_TRUE(channel.fault_counters().any());
  EXPECT_EQ(channel.RetransmitUnacked(), 0u);  // everything acknowledged
}

TEST(ChannelStressTest, SerializedModeCountsDecodedMessages) {
  // Many senders race encoded block frames; each decodes intact, in
  // per-sender order, and the counters match the encoded sizes.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 2000;
  Channel channel;

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&channel, s] {
      for (int i = 0; i < kPerSender; ++i) {
        uint32_t count = 1 + i % 4;
        std::vector<uint8_t> bytes;
        ASSERT_TRUE(
            EncodeBlock(PatternBlock(s * kPerSender + i, 3, count), &bytes)
                .ok());
        channel.SendBytes(std::move(bytes), count);
      }
    });
  }

  std::vector<std::vector<uint8_t>> received;
  const size_t expect = static_cast<size_t>(kSenders) * kPerSender;
  while (received.size() < expect) channel.DrainBytes(&received);
  for (std::thread& t : senders) t.join();
  channel.DrainBytes(&received);
  ASSERT_EQ(received.size(), expect);

  uint64_t tuples = 0;
  uint64_t bytes = 0;
  std::vector<int> last(kSenders, -1);
  TupleBlock decoded;
  for (const auto& frame : received) {
    size_t offset = 0;
    ASSERT_TRUE(DecodeBlockInto(frame, &offset, &decoded).ok());
    uint32_t seq = decoded.value(0, 0) / 31;
    int s = static_cast<int>(seq / kPerSender);
    int i = static_cast<int>(seq % kPerSender);
    CheckPatternBlock(decoded, seq, 3, 1 + i % 4);
    EXPECT_GT(i, last[s]) << "reordered within sender " << s;
    last[s] = i;
    tuples += decoded.count;
    bytes += BlockWireBytes(3, decoded.count);
  }
  EXPECT_EQ(channel.total_sent(), tuples);
  EXPECT_EQ(channel.total_frames(), expect);
  EXPECT_EQ(channel.total_bytes(), bytes);
  EXPECT_FALSE(channel.HasPending());
}

TEST(ChannelStressTest, SingleSenderFramesArriveWholeAndInOrder) {
  // The engine's topology: one sender, one drainer. The drainer checks
  // every cell of every block while the sender races it, so a frame
  // published before it was fully written would fail here (and is a
  // data race under TSan).
  constexpr int kFrames = 3000;
  Channel channel;

  std::thread producer([&channel] {
    for (int seq = 0; seq < kFrames; ++seq) {
      channel.SendBlock(
          PatternBlock(seq, /*arity=*/4, /*count=*/(seq % 8) + 1));
    }
  });

  size_t validated = 0;
  uint64_t bytes = 0;
  std::vector<TupleBlock> scratch;
  while (validated < kFrames) {
    scratch.clear();
    channel.DrainBlocks(&scratch);
    for (const TupleBlock& block : scratch) {
      const uint32_t seq = static_cast<uint32_t>(validated);
      CheckPatternBlock(block, seq, 4, (seq % 8) + 1);
      bytes += BlockWireBytes(4, block.count);
      ++validated;
    }
  }
  producer.join();
  EXPECT_EQ(validated, static_cast<size_t>(kFrames));
  EXPECT_EQ(channel.total_frames(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(channel.total_bytes(), bytes);
  EXPECT_FALSE(channel.HasPending());
}

}  // namespace
}  // namespace pdatalog
