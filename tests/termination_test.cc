#include "core/termination.h"

#include <atomic>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"

namespace pdatalog {
namespace {

using testing_util::RowBlock;

TEST(TerminationTest, AllIdleNoTrafficTerminates) {
  TerminationDetector detector(3);
  for (int w = 0; w < 3; ++w) detector.SetIdle(w, true);
  EXPECT_TRUE(detector.TryDetect());
  EXPECT_TRUE(detector.terminated());
}

TEST(TerminationTest, ActiveWorkerBlocksTermination) {
  TerminationDetector detector(2);
  detector.SetIdle(0, true);
  detector.SetIdle(1, false);
  EXPECT_FALSE(detector.TryDetect());
}

TEST(TerminationTest, InFlightMessageBlocksTermination) {
  TerminationDetector detector(2);
  detector.SetIdle(0, true);
  detector.SetIdle(1, true);
  detector.CountSend(0, 1);  // sent but not yet received
  EXPECT_FALSE(detector.TryDetect());
  detector.CountReceive(1, 1);
  EXPECT_TRUE(detector.TryDetect());
}

TEST(TerminationTest, TerminationIsSticky) {
  TerminationDetector detector(1);
  detector.SetIdle(0, true);
  EXPECT_TRUE(detector.TryDetect());
  // Later state changes don't un-terminate.
  detector.SetIdle(0, false);
  EXPECT_TRUE(detector.TryDetect());
}

TEST(TerminationTest, StressPingPongNeverTerminatesEarly) {
  // Two workers bounce a token back and forth `kHops` times, then stop.
  // The detector must fire exactly once, only after all hops completed.
  constexpr int kHops = 2000;
  TerminationDetector detector(2);
  CommNetwork network(2);
  std::atomic<int> hops{0};
  std::atomic<bool> early_termination{false};

  auto worker = [&](int id) {
    detector.SetIdle(id, false);
    if (id == 0) {
      detector.CountSend(0, 1);
      network.channel(0, 1).Send(RowBlock(0, {1}));
    }
    std::vector<TupleBlock> buffer;
    while (!detector.terminated()) {
      buffer.clear();
      size_t n = network.channel(1 - id, id).Drain(&buffer);
      if (n > 0) {
        detector.SetIdle(id, false);
        detector.CountReceive(id, n);
        int h = hops.fetch_add(1) + 1;
        if (h < kHops) {
          detector.CountSend(id, 1);
          network.channel(id, 1 - id).Send(RowBlock(0, {1}));
        }
      } else {
        detector.SetIdle(id, true);
        if (detector.TryDetect()) {
          if (hops.load() < kHops) early_termination = true;
          return;
        }
        std::this_thread::yield();
      }
    }
  };

  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();
  EXPECT_FALSE(early_termination.load());
  EXPECT_EQ(hops.load(), kHops);
  EXPECT_TRUE(detector.terminated());
}

TEST(ChannelTest, SendDrainRoundTrip) {
  Channel channel;
  channel.Send(RowBlock(7, {1, 2}));
  channel.Send(RowBlock(7, {3, 4}));
  EXPECT_TRUE(channel.HasPending());
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].predicate, 7u);
  EXPECT_EQ(out[0].value(0, 0), 1u);
  EXPECT_EQ(out[0].value(0, 1), 2u);
  EXPECT_EQ(out[1].value(0, 0), 3u);
  EXPECT_FALSE(channel.HasPending());
  EXPECT_EQ(channel.total_sent(), 2u);
  EXPECT_EQ(channel.total_frames(), 2u);
  EXPECT_EQ(channel.total_bytes(), 2 * BlockWireBytes(2, 1));
}

TEST(ChannelTest, DrainAppendsToExisting) {
  Channel channel;
  channel.Send(RowBlock(1, {9}));
  std::vector<TupleBlock> out;
  out.push_back(RowBlock(0, {5}));
  EXPECT_EQ(channel.Drain(&out), 1u);  // counts only new tuples
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].value(0, 0), 9u);
}

TEST(CommNetworkTest, MatrixShape) {
  CommNetwork network(3);
  network.channel(0, 2).Send(RowBlock(1, {1}));
  network.channel(0, 2).Send(RowBlock(1, {2}));
  network.channel(1, 0).Send(RowBlock(1, {3}));
  auto m = network.SentMatrix();
  EXPECT_EQ(m[0][2], 2u);
  EXPECT_EQ(m[1][0], 1u);
  EXPECT_EQ(m[2][1], 0u);
  EXPECT_EQ(network.FramesMatrix()[0][2], 2u);
  EXPECT_EQ(network.BytesMatrix()[1][0], BlockWireBytes(1, 1));
}

TEST(CommNetworkTest, ChannelsAreDistinct) {
  CommNetwork network(2);
  network.channel(0, 1).Send(RowBlock(1, {1}));
  EXPECT_FALSE(network.channel(1, 0).HasPending());
  EXPECT_TRUE(network.channel(0, 1).HasPending());
}

TEST(ChannelTest, ConcurrentSendersAllDelivered) {
  Channel channel;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&channel] {
      for (int i = 0; i < kPerThread; ++i) {
        channel.Send(RowBlock(0, {static_cast<Value>(i)}));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 4u * kPerThread);
  EXPECT_EQ(channel.total_sent(), 4u * kPerThread);
  EXPECT_EQ(channel.total_frames(), 4u * kPerThread);
  EXPECT_EQ(channel.total_bytes(), 4u * kPerThread * BlockWireBytes(1, 1));
}

}  // namespace
}  // namespace pdatalog
