#include "core/termination.h"

#include <atomic>
#include <thread>
#include <vector>

#include "core/channel.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

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
  auto m = network.Matrix(&Channel::total_sent);
  EXPECT_EQ(m[0][2], 2u);
  EXPECT_EQ(m[1][0], 1u);
  EXPECT_EQ(m[2][1], 0u);
  EXPECT_EQ(network.Matrix(&Channel::total_frames)[0][2], 2u);
  EXPECT_EQ(network.Matrix(&Channel::total_bytes)[1][0],
            BlockWireBytes(1, 1));
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

// A general-scheme program mixing both routes: `a` is self-routed (its
// rules and its one reader all key on the head's Y), while `b` has two
// readers and crosses processors. Rows of `a` never enter a channel, so
// the Mattern counters see only `b`; that is enough, because a worker
// returns from Init/Step only after Evaluate() has carried `a` to its
// local fixpoint, so no worker is ever idle with unread `a` delta.
TEST(SelfRoutedTerminationTest, MixedProgramMatchesOracle) {
  SymbolTable symbols;
  Program program = testing_util::ParseOrDie(
      "b(X, Y) :- f(X, Y).\n"
      "b(X, Y) :- f(X, Z), b(Z, Y).\n"
      "a(X, Y) :- b(X, Y).\n"
      "a(X, Y) :- e(X, Z), a(Z, Y).\n",
      &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(4);
  for (int r = 0; r < 4; ++r) {
    specs[r].vars = {symbols.Intern(r == 0 ? "X" : r == 1 ? "Z" : "Y")};
    specs[r].h = DiscriminatingFunction::UniformHash(4, 9);
  }
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 4, specs);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_EQ(bundle->self_routed,
            std::unordered_set<Symbol>{symbols.Lookup("a")});

  auto fill = [&](Database* db) {
    GenRandomGraph(&symbols, db, "f", 30, 45, 3);
    GenRandomGraph(&symbols, db, "e", 30, 60, 4);
  };
  Database seq_db;
  fill(&seq_db);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  struct Config {
    const char* name;
    bool threads;
    bool serialize;
    bool faults;
  };
  for (const Config& c : {Config{"threads", true, false, false},
                          Config{"round-robin", false, false, false},
                          Config{"serialized", true, true, false},
                          Config{"faults+retransmit", true, false, true},
                          Config{"faults+retransmit round-robin", false,
                                 false, true}}) {
    SCOPED_TRACE(c.name);
    ParallelOptions options;
    options.use_threads = c.threads;
    options.serialize_messages = c.serialize;
    if (c.faults) {
      options.faults.drop = 0.1;
      options.faults.duplicate = 0.1;
      options.faults.reorder = 0.1;
      options.faults.delay = 0.1;
      options.retransmit = true;
    }
    Database edb;
    fill(&edb);
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const char* pred : {"a", "b"}) {
      EXPECT_EQ(testing_util::Dump(result->output, symbols, pred),
                testing_util::Dump(seq_db, symbols, pred))
          << pred;
    }
    EXPECT_EQ(result->total_firings, seq.firings);
    EXPECT_GT(result->cross_tuples, 0u);
    if (c.faults) {
      EXPECT_GT(result->faults.dropped + result->faults.duplicated +
                    result->faults.reordered + result->faults.delayed,
                0u);
    }
  }
}

}  // namespace
}  // namespace pdatalog
