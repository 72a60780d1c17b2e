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
using testing_util::ParseOrDie;
using testing_util::SequentialAncestor;
using testing_util::ValidateOrDie;
using testing_util::WorkerRig;

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

// Sum over workers 1..P-1 of their t_out sizes: the run's pooling
// messages when the merge reads t_out.
uint64_t RemoteOutTuples(const ParallelResult& result) {
  uint64_t total = 0;
  for (size_t w = 1; w < result.workers.size(); ++w) {
    total += result.workers[w].out_inserted;
  }
  return total;
}

TEST_P(EngineModeTest, DeterminedSendsPoolFromDisjointTinPartitions) {
  for (AncestorScheme scheme :
       {AncestorScheme::kExample1, AncestorScheme::kExample3}) {
    SCOPED_TRACE(static_cast<int>(scheme));
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 60, 150, 5);
    const std::string expected = SequentialAncestor(setup.get(), nullptr);
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);

    // Every tuple is sent to exactly one processor, so the receivers'
    // t_in relations partition the fixpoint.
    WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
    rig.RunToQuiescence();
    const Symbol in = bundle.in_name.at(setup->anc());
    std::vector<const Relation*> ins;
    for (const auto& worker : rig.workers) {
      ins.push_back(worker->local_db().Find(in));
      ASSERT_NE(ins.back(), nullptr);
    }
    size_t in_total = 0;
    for (const Relation* t_in : ins) in_total += t_in->size();
    // Each t_in is a set, so they are pairwise disjoint exactly when
    // their union loses no row.
    Relation all(2);
    all.InsertAll(ins);
    EXPECT_EQ(all.size(), in_total);
    EXPECT_EQ(all.ToSortedString(setup->symbols), expected);

    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, Options());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
    EXPECT_EQ(result->pooled_tuples, in_total);
    EXPECT_EQ(result->pooling_messages, in_total - ins[0]->size());
    if (!GetParam()) {
      // The round-robin schedule repeats the rig's, so the pooled rows
      // are the t_ins concatenated in worker order.
      const Relation* pooled = result->output.Find(setup->anc());
      size_t row = 0;
      for (const Relation* t_in : ins) {
        for (size_t r = 0; r < t_in->size(); ++r, ++row) {
          ASSERT_EQ(pooled->row(row), t_in->row(r)) << row;
        }
      }
    }
  }
}

// Runs the linear sirup `source` (base s and b: random graphs over
// n0..n29, plus diagonal s rows; derived t) under the Section 3 scheme v(r) = <Y>,
// v(e) = <X> on 4 processors, and expects the pooled t to equal the
// sequential fixpoint.
StatusOr<ParallelResult> RunSirupAgainstOracle(const char* source,
                                               bool use_threads) {
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  if (!sirup.ok()) return sirup.status();
  LinearSchemeOptions scheme;
  scheme.v_r = {symbols.Intern("Y")};
  scheme.v_e = {symbols.Intern("X")};
  scheme.h = DiscriminatingFunction::UniformHash(4);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 4, scheme);
  if (!bundle.ok()) return bundle.status();

  Database edb, seq_db;
  for (Database* db : {&edb, &seq_db}) {
    GenRandomGraph(&symbols, db, "s", 30, 120, 3);
    GenRandomGraph(&symbols, db, "b", 30, 200, 4);
    // The generator makes no self-loops; add a few diagonal s rows.
    Relation& s = db->GetOrCreate(symbols.Intern("s"), 2);
    for (int i = 0; i < 30; i += 3) {
      Value n = symbols.Intern("n" + std::to_string(i));
      s.Insert(Tuple{n, n});
    }
  }
  EvalStats seq_stats;
  PDATALOG_RETURN_IF_ERROR(
      SemiNaiveEvaluate(program, info, &seq_db, &seq_stats));
  ParallelOptions options;
  options.use_threads = use_threads;
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
  if (result.ok()) {
    EXPECT_EQ(testing_util::Dump(result->output, symbols, "t"),
              testing_util::Dump(seq_db, symbols, "t"));
    EXPECT_GT(result->pooled_tuples, 0u);
  }
  return result;
}

TEST_P(EngineModeTest, ConstantInSendPatternPoolsFromTout) {
  // Only t rows ending in n0 match t(Y, n0) and are sent; the rest
  // exist in t_out alone.
  StatusOr<ParallelResult> result = RunSirupAgainstOracle(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, n0), b(X, Y).\n",
      GetParam());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pooling_messages, RemoteOutTuples(*result));
}

TEST_P(EngineModeTest, RepeatedVariableInSendPatternPoolsFromTout) {
  // Only diagonal t rows match t(Y, Y) and are sent.
  StatusOr<ParallelResult> result = RunSirupAgainstOracle(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, Y), b(X, Y).\n",
      GetParam());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pooling_messages, RemoteOutTuples(*result));
}

TEST_P(EngineModeTest, UnconsumedPredicatePoolsFromToutWhenStratified) {
  // top sits alone in the last stratum and no rule reads it, so it has
  // no sending rule; r1 below it is pooled from its t_in partitions.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "top(X, Y) :- r1(X, Z), e(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(3);
  specs[0].vars = {symbols.Intern("X")};
  specs[1].vars = {symbols.Intern("Z")};
  specs[2].vars = {symbols.Intern("X")};
  for (GeneralRuleSpec& spec : specs) {
    spec.h = DiscriminatingFunction::UniformHash(3, 9);
  }

  Database seq_db, edb;
  GenRandomGraph(&symbols, &seq_db, "e", 40, 90, 6);
  GenRandomGraph(&symbols, &edb, "e", 40, 90, 6);
  EvalStats seq_stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq_stats).ok());
  ParallelOptions options = Options();
  StatusOr<ParallelResult> result =
      RunParallelStratified(program, info, 3, specs, &edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const char* pred : {"r1", "top"}) {
    EXPECT_EQ(testing_util::Dump(result->output, symbols, pred),
              testing_util::Dump(seq_db, symbols, pred))
        << pred;
  }
  EXPECT_GT(result->output.Find(symbols.Lookup("top"))->size(), 0u);
}

TEST_P(EngineModeTest, BroadcastSendsPoolFromTout) {
  // Example 2 sends cover every tuple but broadcast it, so the t_ins
  // hold up to P copies each and are larger than the t_outs.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 100, 8);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  uint64_t broadcasts = 0;
  for (const WorkerStats& w : result->workers) broadcasts += w.broadcasts;
  EXPECT_GT(broadcasts, 0u);
  EXPECT_EQ(result->pooling_messages, RemoteOutTuples(*result));
}

TEST_P(EngineModeTest, RebalancedRunPoolsTheOracle) {
  // Rebalancer epochs move and replicate hash buckets mid-run, so one
  // tuple can reach several t_ins; the deduplicating merge absorbs it.
  auto setup = MakeAncestorSetup();
  GenZipfGraph(&setup->symbols, &setup->edb, "par", 120, 360, 1.4, 7);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  LinearSchemeOptions scheme;
  scheme.v_r = {setup->symbols.Intern("Z")};
  scheme.v_e = {setup->symbols.Intern("X")};
  scheme.h = DiscriminatingFunction::UniformHash(4);
  scheme.fragment_bases = false;  // the rebalancer's precondition
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, 4, scheme);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ParallelOptions options = Options();
  options.rebalance.skew_threshold = 1.0;
  options.rebalance.min_bucket_tuples = 1;
  options.rebalance.cooldown_windows = 2;
  StatusOr<ParallelResult> result =
      RunParallel(*bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->pooled_tuples,
            result->output.Find(setup->anc())->size());
}

}  // namespace
}  // namespace pdatalog
