// Fault-injection suite: the paper assumes reliable channels; these
// tests violate that assumption on purpose and check the two promises
// the runtime makes about it:
//   1. with retransmit enabled, the parallel fixpoint equals the serial
//      semi-naive result under every injected fault mode;
//   2. with retransmit disabled, injected drops/duplicates/corruption
//      surface as a non-OK Status from RunParallel — never a silent
//      wrong answer.
#include "core/fault.h"

#include <array>
#include <string>
#include <vector>

#include "core/wire.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::EncodedFrame;
using testing_util::GenPointsToFacts;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::ParseOrDie;
using testing_util::RowBlock;
using testing_util::SequentialAncestor;
using testing_util::ValidateOrDie;

// ---------------------------------------------------------------------
// FaultInjector unit behavior
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameChannelSameDecisions) {
  FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.2;
  spec.reorder = 0.2;
  spec.delay = 0.2;
  FaultInjector a(spec, 1, 2);
  FaultInjector b(spec, 1, 2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << "decision " << i;
  }
}

TEST(FaultInjectorTest, DifferentChannelsDifferentStreams) {
  FaultSpec spec;
  spec.drop = 0.5;
  FaultInjector a(spec, 0, 1);
  FaultInjector b(spec, 1, 0);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, ZeroSpecAlwaysDelivers) {
  FaultInjector injector(FaultSpec{}, 0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.Next(), FaultInjector::Action::kDeliver);
  }
}

// ---------------------------------------------------------------------
// Channel-level injection semantics (probability-1 specs make every
// action deterministic without relying on the seed).
// ---------------------------------------------------------------------

TEST(FaultChannelTest, DropLosesEveryMessage) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  for (Value i = 0; i < 5; ++i) channel.Send(RowBlock(1, {i, i}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 0u);
  EXPECT_FALSE(channel.HasPending());
  // Logical sends still count (the termination detector must see the
  // imbalance a loss creates).
  EXPECT_EQ(channel.total_sent(), 5u);
  EXPECT_EQ(channel.total_frames(), 5u);
  EXPECT_EQ(channel.total_bytes(), 5 * BlockWireBytes(2, 1));
  EXPECT_EQ(channel.fault_counters().dropped, 5u);
}

TEST(FaultChannelTest, DuplicateDeliversTwiceWithoutRetransmit) {
  Channel channel;
  FaultSpec spec;
  spec.duplicate = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.Send(RowBlock(1, {7, 8}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 2u);
  EXPECT_EQ(channel.total_sent(), 1u);  // the copy is not a send
  EXPECT_EQ(channel.fault_counters().duplicated, 1u);
}

TEST(FaultChannelTest, ReliableChannelDiscardsDuplicates) {
  Channel channel;
  FaultSpec spec;
  spec.duplicate = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  channel.Send(RowBlock(1, {7, 8}));
  channel.Send(RowBlock(1, {9, 10}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 2u);  // one logical delivery each
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(channel.fault_counters().duplicates_discarded, 2u);
}

TEST(FaultChannelTest, ReorderFlipsDeliveryOrder) {
  Channel channel;
  FaultSpec spec;
  spec.reorder = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.Send(RowBlock(1, {1, 0}));
  channel.Send(RowBlock(1, {2, 0}));
  channel.Send(RowBlock(1, {3, 0}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 3u);
  ASSERT_EQ(out.size(), 3u);
  // Every frame jumped the queue, so arrival order is reversed.
  EXPECT_EQ(out[0].value(0, 0), 3u);
  EXPECT_EQ(out[2].value(0, 0), 1u);
}

TEST(FaultChannelTest, ReliableChannelReordersBackInOrder) {
  Channel channel;
  FaultSpec spec;
  spec.reorder = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  channel.Send(RowBlock(1, {1, 0}));
  channel.Send(RowBlock(1, {2, 0}));
  channel.Send(RowBlock(1, {3, 0}));
  std::vector<TupleBlock> out;
  size_t delivered = channel.Drain(&out);
  while (delivered < 3) {
    channel.RetransmitUnacked();
    delivered += channel.Drain(&out);
  }
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value(0, 0), static_cast<Value>(i + 1));
  }
}

TEST(FaultChannelTest, DelayedFrameStaysPendingThenMatures) {
  Channel channel;
  FaultSpec spec;
  spec.delay = 1.0;
  spec.delay_polls = 2;
  channel.ConfigureFaults(spec, 0, 1);
  channel.Send(RowBlock(1, {4, 5}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 0u);
  // A delayed frame is in transit, not lost: the channel must still
  // report pending so the receiver keeps polling instead of declaring
  // quiescence.
  EXPECT_TRUE(channel.HasPending());
  // Matured after delay_polls drains.
  EXPECT_EQ(channel.Drain(&out), 1u);
  EXPECT_FALSE(channel.HasPending());
  EXPECT_EQ(channel.fault_counters().delayed, 1u);
}

TEST(FaultChannelTest, CorruptByteModeBreaksChecksum) {
  Channel channel;
  FaultSpec spec;
  spec.corrupt = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.Send(EncodedFrame(RowBlock(5, {1, 2})));
  std::vector<TupleBlock> out;
  ASSERT_EQ(channel.Drain(&out), 1u);
  EXPECT_FALSE(FrameChecksumOk(out[0].wire.data(), out[0].wire.size()));
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 1));
  EXPECT_EQ(channel.fault_counters().corrupted, 1u);
}

TEST(FaultChannelTest, ReliableChannelRecoversCorruptViaRetransmit) {
  Channel channel;
  FaultSpec spec;
  spec.corrupt = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  TupleBlock frame = EncodedFrame(RowBlock(5, {1, 2}));
  channel.Send(frame);
  std::vector<TupleBlock> out;
  // The receiver discards the corrupt frame without acknowledging it...
  EXPECT_EQ(channel.Drain(&out), 0u);
  EXPECT_EQ(channel.fault_counters().corrupt_discarded, 1u);
  // ...and the sender's retransmission (which bypasses injection)
  // delivers the intact copy.
  EXPECT_EQ(channel.RetransmitUnacked(), 1u);
  ASSERT_EQ(channel.Drain(&out), 1u);
  EXPECT_TRUE(FrameChecksumOk(out[0].wire.data(), out[0].wire.size()));
  EXPECT_EQ(out[0].wire, frame.wire);
}

TEST(FaultChannelTest, RetransmitStopsOnceAcknowledged) {
  Channel channel;
  FaultSpec spec;
  spec.drop = 1.0;
  channel.ConfigureFaults(spec, 0, 1);
  channel.EnableRetransmit();
  channel.Send(RowBlock(1, {1, 2}));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 0u);  // first transmission dropped
  EXPECT_EQ(channel.RetransmitUnacked(), 1u);
  EXPECT_EQ(channel.Drain(&out), 1u);  // recovered
  // Delivered frames are acknowledged; nothing left to resend.
  EXPECT_EQ(channel.RetransmitUnacked(), 0u);
  EXPECT_EQ(channel.fault_counters().retransmitted, 1u);
  // A retransmission is not a new logical send.
  EXPECT_EQ(channel.total_sent(), 1u);
  EXPECT_EQ(channel.total_frames(), 1u);
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 1));
}

// ---------------------------------------------------------------------
// One table for every injector action through the single Send/Drain:
// object and encoded frames, each on an unreliable and a reliable
// channel. Three frames (1, 2 and 3 tuples) go out under a
// probability-1 spec; the receiver drains kDelayPolls times, the sender
// retransmits once, and the receiver drains again.
// ---------------------------------------------------------------------

constexpr int kDelayPolls = 2;

// Counts in FaultCounters field order: dropped, duplicated, reordered,
// corrupted, delayed, retransmitted, duplicates_discarded,
// corrupt_discarded.
using CounterRow = std::array<uint64_t, 8>;

CounterRow AsRow(const FaultCounters& c) {
  return {c.dropped, c.duplicated, c.reordered, c.corrupted, c.delayed,
          c.retransmitted, c.duplicates_discarded, c.corrupt_discarded};
}

struct ChannelFaultCase {
  const char* name;
  FaultInjector::Action action;
  bool encoded;
  bool reliable;
  size_t first_drain;  // tuples the first Drain reports
  size_t drained;      // tuples all Drains report
  // Frame k carries k + 1 tuples whose first column starts at 10 * k;
  // the first values of the intact frames received, in arrival order.
  std::vector<Value> intact;
  size_t broken;  // received frames that fail to decode
  CounterRow counters;
};

void PrintTo(const ChannelFaultCase& c, std::ostream* os) { *os << c.name; }

using A = FaultInjector::Action;
const ChannelFaultCase kChannelFaultCases[] = {
    // name, action, encoded, reliable, first, drained, intact, broken,
    // {drop dup reord corr delay resent dup_disc corrupt_disc}
    {"deliver_object", A::kDeliver, false, false, 6, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {"deliver_object_reliable", A::kDeliver, false, true, 6, 6,
     {0, 10, 20}, 0, {0, 0, 0, 0, 0, 0, 0, 0}},
    {"deliver_encoded", A::kDeliver, true, false, 6, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {"deliver_encoded_reliable", A::kDeliver, true, true, 6, 6,
     {0, 10, 20}, 0, {0, 0, 0, 0, 0, 0, 0, 0}},
    {"drop_object", A::kDrop, false, false, 0, 0, {}, 0,
     {3, 0, 0, 0, 0, 0, 0, 0}},
    {"drop_object_reliable", A::kDrop, false, true, 0, 6, {0, 10, 20}, 0,
     {3, 0, 0, 0, 0, 3, 0, 0}},
    {"drop_encoded", A::kDrop, true, false, 0, 0, {}, 0,
     {3, 0, 0, 0, 0, 0, 0, 0}},
    {"drop_encoded_reliable", A::kDrop, true, true, 0, 6, {0, 10, 20}, 0,
     {3, 0, 0, 0, 0, 3, 0, 0}},
    {"duplicate_object", A::kDuplicate, false, false, 12, 12,
     {0, 0, 10, 10, 20, 20}, 0, {0, 3, 0, 0, 0, 0, 0, 0}},
    {"duplicate_object_reliable", A::kDuplicate, false, true, 6, 6,
     {0, 10, 20}, 0, {0, 3, 0, 0, 0, 0, 3, 0}},
    {"duplicate_encoded", A::kDuplicate, true, false, 12, 12,
     {0, 0, 10, 10, 20, 20}, 0, {0, 3, 0, 0, 0, 0, 0, 0}},
    {"duplicate_encoded_reliable", A::kDuplicate, true, true, 6, 6,
     {0, 10, 20}, 0, {0, 3, 0, 0, 0, 0, 3, 0}},
    {"reorder_object", A::kReorder, false, false, 6, 6, {20, 10, 0}, 0,
     {0, 0, 3, 0, 0, 0, 0, 0}},
    {"reorder_object_reliable", A::kReorder, false, true, 6, 6,
     {0, 10, 20}, 0, {0, 0, 3, 0, 0, 0, 0, 0}},
    {"reorder_encoded", A::kReorder, true, false, 6, 6, {20, 10, 0}, 0,
     {0, 0, 3, 0, 0, 0, 0, 0}},
    {"reorder_encoded_reliable", A::kReorder, true, true, 6, 6,
     {0, 10, 20}, 0, {0, 0, 3, 0, 0, 0, 0, 0}},
    {"delay_object", A::kDelay, false, false, 0, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 3, 0, 0, 0}},
    {"delay_object_reliable", A::kDelay, false, true, 0, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 3, 0, 0, 0}},
    {"delay_encoded", A::kDelay, true, false, 0, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 3, 0, 0, 0}},
    {"delay_encoded_reliable", A::kDelay, true, true, 0, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 3, 0, 0, 0}},
    // An object frame has no bytes to flip: intact and uncounted.
    {"corrupt_object", A::kCorrupt, false, false, 6, 6, {0, 10, 20}, 0,
     {0, 0, 0, 0, 0, 0, 0, 0}},
    {"corrupt_object_reliable", A::kCorrupt, false, true, 6, 6,
     {0, 10, 20}, 0, {0, 0, 0, 0, 0, 0, 0, 0}},
    // Unreliable: the broken frames surface (the worker's decode fails
    // the run). Reliable: discarded unacknowledged, then resent intact.
    {"corrupt_encoded", A::kCorrupt, true, false, 6, 6, {}, 3,
     {0, 0, 0, 3, 0, 0, 0, 0}},
    {"corrupt_encoded_reliable", A::kCorrupt, true, true, 0, 6,
     {0, 10, 20}, 0, {0, 0, 0, 3, 0, 3, 0, 3}},
};

FaultSpec AlwaysSpec(FaultInjector::Action action) {
  FaultSpec spec;
  spec.delay_polls = kDelayPolls;
  switch (action) {
    case A::kDeliver: break;
    case A::kDrop: spec.drop = 1.0; break;
    case A::kDuplicate: spec.duplicate = 1.0; break;
    case A::kReorder: spec.reorder = 1.0; break;
    case A::kCorrupt: spec.corrupt = 1.0; break;
    case A::kDelay: spec.delay = 1.0; break;
  }
  return spec;
}

class ChannelFaultTableTest
    : public ::testing::TestWithParam<ChannelFaultCase> {};

TEST_P(ChannelFaultTableTest, SendAndDrainFollowTheTable) {
  const ChannelFaultCase& c = GetParam();
  Channel channel;
  channel.ConfigureFaults(AlwaysSpec(c.action), 0, 1);
  if (c.reliable) channel.EnableRetransmit();
  for (Value k = 0; k < 3; ++k) {
    TupleBlock block;
    block.predicate = 1;
    block.arity = 2;
    for (Value r = 0; r <= k; ++r) {
      Value row[2] = {10 * k + r, r};
      block.Append(row, 2);
    }
    channel.Send(c.encoded ? EncodedFrame(block) : block);
  }
  EXPECT_EQ(channel.total_sent(), 6u);
  EXPECT_EQ(channel.total_frames(), 3u);
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 1) +
                                       BlockWireBytes(2, 2) +
                                       BlockWireBytes(2, 3));

  std::vector<TupleBlock> out;
  const size_t first = channel.Drain(&out);
  size_t drained = first;
  for (int poll = 1; poll < kDelayPolls; ++poll) {
    drained += channel.Drain(&out);
  }
  channel.RetransmitUnacked();
  drained += channel.Drain(&out);
  EXPECT_EQ(first, c.first_drain);
  EXPECT_EQ(drained, c.drained);
  EXPECT_FALSE(channel.HasPending());

  std::vector<Value> intact;
  size_t broken = 0;
  for (const TupleBlock& frame : out) {
    EXPECT_EQ(frame.wire.empty(), !c.encoded);
    TupleBlock decoded;
    size_t offset = 0;
    if (c.encoded && !DecodeBlockInto(frame.wire, &offset, &decoded).ok()) {
      ++broken;
      continue;
    }
    const TupleBlock& block = c.encoded ? decoded : frame;
    const Value first_value = block.value(0, 0);
    EXPECT_EQ(block.count, first_value / 10 + 1);
    intact.push_back(first_value);
  }
  EXPECT_EQ(intact, c.intact);
  EXPECT_EQ(broken, c.broken);
  EXPECT_EQ(AsRow(channel.fault_counters()), c.counters);
}

INSTANTIATE_TEST_SUITE_P(
    EveryAction, ChannelFaultTableTest,
    ::testing::ValuesIn(kChannelFaultCases),
    [](const ::testing::TestParamInfo<ChannelFaultCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// End-to-end fault matrix: ancestor (Example 3 scheme) and points_to
// (general scheme) under every fault mode, against the serial result.
// ---------------------------------------------------------------------

struct FaultMode {
  const char* name;
  FaultSpec spec;
};

std::vector<FaultMode> FaultModes() {
  std::vector<FaultMode> modes;
  FaultSpec drop;
  drop.drop = 0.3;
  modes.push_back({"drop", drop});
  FaultSpec duplicate;
  duplicate.duplicate = 0.3;
  modes.push_back({"duplicate", duplicate});
  FaultSpec reorder;
  reorder.reorder = 0.5;
  modes.push_back({"reorder", reorder});
  FaultSpec corrupt;
  corrupt.corrupt = 0.25;
  modes.push_back({"corrupt", corrupt});
  FaultSpec delay;
  delay.delay = 0.4;
  delay.delay_polls = 2;
  modes.push_back({"delay", delay});
  FaultSpec mixed;
  mixed.drop = 0.1;
  mixed.duplicate = 0.1;
  mixed.reorder = 0.1;
  mixed.corrupt = 0.1;
  mixed.delay = 0.1;
  modes.push_back({"mixed", mixed});
  return modes;
}

class FaultMatrixTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(RoundRobinAndThreads, FaultMatrixTest,
                         ::testing::Values(false, true));

TEST_P(FaultMatrixTest, AncestorExactUnderEveryFaultModeWithRetransmit) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  for (const FaultMode& mode : FaultModes()) {
    RewriteBundle bundle =
        MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
    ParallelOptions options;
    options.use_threads = GetParam();
    options.serialize_messages = true;  // corruption needs wire bytes
    options.faults = mode.spec;
    options.retransmit = true;
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok())
        << mode.name << ": " << result.status().ToString();
    EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
        << mode.name;
    EXPECT_TRUE(result->faults.any()) << mode.name << ": injector idle";
  }
}

TEST_P(FaultMatrixTest, PointsToExactUnderEveryFaultModeWithRetransmit) {
  SymbolTable symbols;
  StatusOr<NamedProgram> named = FindProgram("points_to");
  ASSERT_TRUE(named.ok());
  Program program = ParseOrDie(named->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);

  // Serial reference.
  Database seq_db;
  GenPointsToFacts(&symbols, &seq_db, 12, 6, 25, 11);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());
  std::string expected_pt =
      seq_db.Find(symbols.Lookup("pt"))->ToSortedString(symbols);
  std::string expected_heap =
      seq_db.Find(symbols.Lookup("heap_pt"))->ToSortedString(symbols);

  // General-scheme rewrite: partition every rule on its object column.
  Symbol o = symbols.Intern("O");
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (GeneralRuleSpec& spec : specs) {
    spec.vars = {o};
    spec.h = DiscriminatingFunction::UniformHash(3);
  }
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  for (const FaultMode& mode : FaultModes()) {
    Database edb;
    GenPointsToFacts(&symbols, &edb, 12, 6, 25, 11);
    ParallelOptions options;
    options.use_threads = GetParam();
    options.serialize_messages = true;
    options.faults = mode.spec;
    options.retransmit = true;
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
    ASSERT_TRUE(result.ok())
        << mode.name << ": " << result.status().ToString();
    EXPECT_EQ(
        result->output.Find(symbols.Lookup("pt"))->ToSortedString(symbols),
        expected_pt)
        << mode.name;
    EXPECT_EQ(result->output.Find(symbols.Lookup("heap_pt"))
                  ->ToSortedString(symbols),
              expected_heap)
        << mode.name;
  }
}

// ---------------------------------------------------------------------
// Without retransmit, faults are *detected*, not repaired: RunParallel
// must return a non-OK Status — never a silently wrong fixpoint.
// ---------------------------------------------------------------------

TEST_P(FaultMatrixTest, DropsWithoutRetransmitFailTheRun) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  ParallelOptions options;
  options.use_threads = GetParam();
  options.faults.drop = 0.3;
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("channel fault"),
            std::string::npos)
      << result.status().ToString();
}

TEST_P(FaultMatrixTest, DuplicatesWithoutRetransmitFailTheRun) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  ParallelOptions options;
  options.use_threads = GetParam();
  options.faults.duplicate = 0.4;
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb, options);
  // Duplicated deliveries unbalance the counters the other way; the
  // detector reports them just like losses. (The fixpoint itself would
  // survive duplicates — t_in relations are sets — but an undetected
  // counter imbalance would livelock the threaded run.)
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("channel fault"),
            std::string::npos)
      << result.status().ToString();
}

TEST_P(FaultMatrixTest, CorruptionWithoutRetransmitFailTheRun) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  ParallelOptions options;
  options.use_threads = GetParam();
  options.serialize_messages = true;
  options.faults.corrupt = 0.3;
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb, options);
  // A corrupted frame fails its checksum at decode; the worker's Status
  // propagates out of RunParallel (the tentpole path: DrainChannels ->
  // Step -> RunLoop -> RunParallel).
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad frame"), std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------
// Termination detection under injected delays: quiescence must not be
// declared while frames are still in transit.
// ---------------------------------------------------------------------

TEST_P(FaultMatrixTest, DelaysAloneNeverCauseFalseQuiescence) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  ParallelOptions options;
  options.use_threads = GetParam();
  options.faults.delay = 0.6;
  options.faults.delay_polls = 4;
  // No retransmit: delayed frames arrive late but are never lost, so
  // the run must still terminate with the exact answer. If the detector
  // ever declared quiescence with a frame still delayed, tuples would
  // be missing from the output.
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_GT(result->faults.delayed, 0u);
}

// ---------------------------------------------------------------------
// Options plumbing and validation.
// ---------------------------------------------------------------------

TEST(FaultOptionsTest, RetransmitWithoutFaultsIsExact) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 3);
  std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  ParallelOptions options;
  options.retransmit = true;
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->faults.dropped, 0u);
  EXPECT_EQ(result->faults.corrupted, 0u);
}

TEST(FaultOptionsTest, InvalidSpecsAreRejected) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);

  ParallelOptions negative;
  negative.faults.drop = -0.1;
  EXPECT_FALSE(RunParallel(bundle, &setup->edb, negative).ok());

  ParallelOptions oversum;
  oversum.faults.drop = 0.7;
  oversum.faults.delay = 0.7;
  EXPECT_FALSE(RunParallel(bundle, &setup->edb, oversum).ok());

  ParallelOptions corrupt_shared;
  corrupt_shared.faults.corrupt = 0.5;  // but serialize_messages = false
  EXPECT_FALSE(RunParallel(bundle, &setup->edb, corrupt_shared).ok());

  ParallelOptions bad_delay;
  bad_delay.faults.delay = 0.5;
  bad_delay.faults.delay_polls = 0;
  EXPECT_FALSE(RunParallel(bundle, &setup->edb, bad_delay).ok());
}

TEST(FaultOptionsTest, DeterministicModeReproducesFaultCounters) {
  // Round-robin scheduling + seeded per-channel injectors: two
  // identical runs inject exactly the same faults.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 5);
  FaultCounters first;
  for (int run = 0; run < 2; ++run) {
    RewriteBundle bundle =
        MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
    ParallelOptions options;
    options.use_threads = false;
    options.serialize_messages = true;
    options.faults.drop = 0.2;
    options.faults.corrupt = 0.2;
    options.retransmit = true;
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (run == 0) {
      first = result->faults;
      EXPECT_TRUE(first.any());
    } else {
      EXPECT_EQ(result->faults.dropped, first.dropped);
      EXPECT_EQ(result->faults.corrupted, first.corrupted);
      EXPECT_EQ(result->faults.retransmitted, first.retransmitted);
    }
  }
}

}  // namespace
}  // namespace pdatalog
