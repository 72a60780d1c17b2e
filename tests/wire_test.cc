#include "core/wire.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::EncodedFrame;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::RowBlock;
using testing_util::SequentialAncestor;

TEST(WireTest, FrameChecksumRejectsShortFrames) {
  std::vector<uint8_t> bytes(kBlockHeaderBytes + kWireChecksumBytes - 1, 0);
  EXPECT_FALSE(FrameChecksumOk(bytes.data(), bytes.size()));
}

TEST(WireTest, SerializedChannelRoundTrip) {
  Channel channel;
  TupleBlock block = RowBlock(5, {1, 2});
  Value row[2] = {3, 4};
  block.Append(row, 2);
  TupleBlock frame = EncodedFrame(block);
  channel.Send(frame);
  EXPECT_TRUE(channel.HasPending());
  EXPECT_EQ(channel.total_sent(), 2u);
  EXPECT_EQ(channel.total_frames(), 1u);
  EXPECT_EQ(channel.total_bytes(), BlockWireBytes(2, 2));
  std::vector<TupleBlock> out;
  EXPECT_EQ(channel.Drain(&out), 2u);  // tuples, in one frame
  EXPECT_FALSE(channel.HasPending());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].wire, frame.wire);
  size_t offset = 0;
  TupleBlock decoded;
  ASSERT_TRUE(DecodeBlockInto(out[0].wire, &offset, &decoded).ok());
  EXPECT_EQ(decoded.predicate, 5u);
  EXPECT_EQ(decoded.value(1, 0), 3u);
  EXPECT_EQ(decoded.value(1, 1), 4u);
}

class SerializedEngineTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(ThreadsAndRoundRobin, SerializedEngineTest,
                         ::testing::Values(false, true));

TEST_P(SerializedEngineTest, MessagePassingModeMatchesSharedMemory) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 9);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  for (AncestorScheme scheme :
       {AncestorScheme::kExample2, AncestorScheme::kExample3}) {
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    ParallelOptions options;
    options.use_threads = GetParam();
    options.serialize_messages = true;
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
        << "scheme " << static_cast<int>(scheme);
  }
}

TEST(SerializedEngineTest, GeneralSchemeUnderMessagePassing) {
  SymbolTable symbols;
  Program program = testing_util::ParseOrDie(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("Y")};
  specs[0].h = DiscriminatingFunction::UniformHash(3);
  specs[1].vars = {symbols.Intern("Z")};
  specs[1].h = DiscriminatingFunction::UniformHash(3);
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
  ASSERT_TRUE(bundle.ok());

  Database seq_db;
  GenRandomGraph(&symbols, &seq_db, "par", 20, 40, 10);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 20, 40, 10);
  ParallelOptions options;
  options.serialize_messages = true;
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      result->output.Find(symbols.Lookup("anc"))->ToSortedString(symbols),
      seq_db.Find(symbols.Lookup("anc"))->ToSortedString(symbols));
}

}  // namespace
}  // namespace pdatalog
