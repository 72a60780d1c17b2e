#include "core/engine.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

class EngineModeTest : public ::testing::TestWithParam<bool> {
 protected:
  ParallelOptions Options() const {
    ParallelOptions options;
    options.use_threads = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(ThreadsAndRoundRobin, EngineModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threads" : "RoundRobin";
                         });

TEST_P(EngineModeTest, AncestorChainMatchesSequential) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()),
            SequentialAncestor(setup.get(), nullptr));
}

TEST_P(EngineModeTest, EmptyInputTerminatesImmediately) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pooled_tuples, 0u);
  EXPECT_EQ(result->total_firings, 0u);
}

TEST_P(EngineModeTest, SingleProcessorDegeneratesToSequential) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 3);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 1);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EvalStats seq_stats;
  std::string expected = SequentialAncestor(setup.get(), &seq_stats);
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->total_firings, seq_stats.firings);
  EXPECT_EQ(result->cross_tuples, 0u);
}

TEST_P(EngineModeTest, AllSchemesProduceTheSameAnswer) {
  for (AncestorScheme scheme :
       {AncestorScheme::kExample1, AncestorScheme::kExample2,
        AncestorScheme::kExample3}) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 55, 17);
    std::string expected = SequentialAncestor(setup.get(), nullptr);
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, Options());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
        << "scheme " << static_cast<int>(scheme);
  }
}

TEST_P(EngineModeTest, CyclicDataTerminates) {
  auto setup = MakeAncestorSetup();
  GenCycle(&setup->symbols, &setup->edb, "par", 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pooled_tuples, 144u);  // complete relation
}

TEST_P(EngineModeTest, ChannelMatrixConsistentWithWorkerStats) {
  auto setup = MakeAncestorSetup();
  GenTree(&setup->symbols, &setup->edb, "par", 2, 6);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());

  uint64_t matrix_cross = 0;
  uint64_t matrix_self = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) {
        matrix_self += result->channel_matrix[i][j];
      } else {
        matrix_cross += result->channel_matrix[i][j];
      }
    }
  }
  EXPECT_EQ(matrix_cross, result->cross_tuples);
  EXPECT_EQ(matrix_self, result->self_tuples);

  uint64_t received = 0;
  uint64_t sent = 0;
  for (const WorkerStats& w : result->workers) {
    received += w.received;
    sent += w.sent_cross + w.sent_self;
  }
  EXPECT_EQ(received, sent);  // all channels drained at termination
}

TEST(EngineTest, MalformedBundleRejected) {
  RewriteBundle bundle;
  bundle.num_processors = 2;  // but no per-processor programs
  Database edb;
  EXPECT_FALSE(RunParallel(bundle, &edb).ok());
}

TEST(EngineTest, ConstantFunctionOutOfRangeRejected) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 3);
  StatusOr<LinearSirup> sirup =
      ExtractLinearSirup(setup->program, setup->info);
  ASSERT_TRUE(sirup.ok());
  TradeoffOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h_prime = DiscriminatingFunction::UniformHash(2);
  options.h_i = {DiscriminatingFunction::Constant(0),
                 DiscriminatingFunction::Constant(7)};  // out of range
  StatusOr<RewriteBundle> bundle = RewriteTradeoff(
      setup->program, setup->info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineTest, ModeledMakespanUsesWorstWorker) {
  ParallelResult result;
  result.workers.resize(2);
  result.workers[0].firings = 100;
  result.workers[1].firings = 10;
  result.channel_matrix = {{0, 5}, {7, 0}};
  // cpu=1, net=0: max(100, 10) = 100.
  EXPECT_DOUBLE_EQ(result.ModeledMakespan(1.0, 0.0), 100.0);
  // cpu=0, net=1: worker0 receives 7, worker1 receives 5 -> 7.
  EXPECT_DOUBLE_EQ(result.ModeledMakespan(0.0, 1.0), 7.0);
}

TEST_P(EngineModeTest, GeneralSchemeNonLinearAncestor) {
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

  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 20, 40, 2);

  // Sequential reference.
  Database seq_db;
  const Relation* par = edb.Find(symbols.Lookup("par"));
  seq_db.GetOrCreate(symbols.Lookup("par"), 2).InsertAll(*par);
  EvalStats seq_stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq_stats).ok());

  StatusOr<ParallelResult> result =
      RunParallel(*bundle, &edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(
      result->output.Find(symbols.Lookup("anc"))->ToSortedString(symbols),
      seq_db.Find(symbols.Lookup("anc"))->ToSortedString(symbols));
}

}  // namespace
}  // namespace pdatalog
