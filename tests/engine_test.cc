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
    // Every t_in row of worker i satisfies h(v(r)) = i: the partition
    // the concatenating pool relies on is the one the sends define.
    ASSERT_TRUE(SendsPartition(bundle, setup->anc()));
    const SendSpec& spec = bundle.sends[0][0];
    ASSERT_EQ(spec.predicate, setup->anc());
    std::vector<Value> key(spec.var_positions.size());
    for (size_t i = 0; i < ins.size(); ++i) {
      size_t misrouted = 0;
      for (size_t r = 0; r < ins[i]->size(); ++r) {
        for (size_t k = 0; k < key.size(); ++k) {
          key[k] = ins[i]->cell(r, spec.var_positions[k]);
        }
        misrouted += bundle.registry->Evaluate(
                         spec.function, key.data(),
                         static_cast<int>(key.size())) != static_cast<int>(i);
      }
      EXPECT_EQ(misrouted, 0u) << "worker " << i;
    }
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

// The linear sirup `program` (derived t) under the Section 3 scheme
// v(r) = <Y>, v(e) = <X> on 4 processors.
StatusOr<RewriteBundle> SirupBundle(const Program& program,
                                    const ProgramInfo& info,
                                    SymbolTable* symbols) {
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  if (!sirup.ok()) return sirup.status();
  LinearSchemeOptions scheme;
  scheme.v_r = {symbols->Intern("Y")};
  scheme.v_e = {symbols->Intern("X")};
  scheme.h = DiscriminatingFunction::UniformHash(4);
  return RewriteLinearSirup(program, info, *sirup, 4, scheme);
}

// Runs the linear sirup `source` (base s and b: random graphs over
// n0..n29, plus diagonal s rows; derived t) under SirupBundle's scheme
// and expects the pooled t to equal the sequential fixpoint.
StatusOr<ParallelResult> RunSirupAgainstOracle(const char* source,
                                               bool use_threads) {
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<RewriteBundle> bundle = SirupBundle(program, info, &symbols);
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
  // Example 2's sends broadcast, so a tuple can reach several t_ins and
  // the pool merges the t_outs instead.
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
  // tuple can reach several t_ins; the run pools its t_outs instead.
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
  ASSERT_TRUE(SendsPartition(*bundle, setup->anc()));  // without moves
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
  EXPECT_EQ(result->pooling_messages, RemoteOutTuples(*result));
}

TEST_P(EngineModeTest, TradeoffSendsPoolFromTout) {
  // Keep-or-hash routes a tuple by where it was derived: two processors
  // deriving it can both keep it, so the t_ins overlap and concatenating
  // them would store tuples twice.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 120, 300, 4);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kTradeoff, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  uint64_t in_total = 0;
  for (const WorkerStats& w : result->workers) in_total += w.in_inserted;
  EXPECT_GT(in_total, result->pooled_tuples);
  EXPECT_EQ(result->pooling_messages, RemoteOutTuples(*result));
}

// Example 1's anc is self-routed, so its rows derive straight into t_in
// and not one frame enters any channel, the self channels included.
TEST_P(EngineModeTest, SelfRoutedExample1SendsNothing) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 60, 150, 5);
  EvalStats seq;
  const std::string expected = SequentialAncestor(setup.get(), &seq);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 4);
  ASSERT_EQ(bundle.self_routed.count(setup->anc()), 1u);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->total_firings, seq.firings);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(result->frames_matrix[i][j], 0u) << i << "->" << j;
      EXPECT_EQ(result->channel_matrix[i][j], 0u) << i << "->" << j;
    }
    EXPECT_EQ(result->workers[i].received, 0u) << "worker " << i;
  }
  EXPECT_EQ(result->pooled_tuples, result->out_tuples_total);
}

// A rebalancer can move a bucket mid-run, so a rebalanced Example 1 run
// keeps its t_out and self channel and still reaches the oracle.
TEST_P(EngineModeTest, RebalancedExample1StillSends) {
  auto setup = MakeAncestorSetup();
  GenZipfGraph(&setup->symbols, &setup->edb, "par", 120, 360, 1.4, 7);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  SchemeRequest request;
  request.kind = SchemeKind::kExample1;
  request.fragment_bases = false;  // the rebalancer's precondition
  StatusOr<BuiltScheme> built =
      BuildScheme(setup->program, setup->info, setup->edb, request);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->bundle.self_routed.count(setup->anc()), 1u);
  ParallelOptions options = Options();
  options.rebalance.skew_threshold = 1.0;
  options.rebalance.min_bucket_tuples = 1;
  options.rebalance.cooldown_windows = 2;
  StatusOr<ParallelResult> result =
      RunParallel(built->bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_GT(result->self_tuples + result->cross_tuples, 0u);
  uint64_t frames = 0;
  for (const WorkerStats& w : result->workers) frames += w.frames;
  EXPECT_GT(frames, 0u);
}

// Which predicates final pooling concatenates (SendsPartition), over the
// scheme catalogue and this file's sirups.
TEST(PartitionRuleTest, PartitionedPredicatesPerScheme) {
  const std::pair<AncestorScheme, bool> ancestor[] = {
      {AncestorScheme::kExample1, true},   {AncestorScheme::kExample2, false},
      {AncestorScheme::kExample3, true},   {AncestorScheme::kGeneral, true},
      {AncestorScheme::kTradeoff, false},  {AncestorScheme::kAuto, true},
  };
  for (const auto& [scheme, partitioned] : ancestor) {
    auto setup = MakeAncestorSetup();
    GenChain(&setup->symbols, &setup->edb, "par", 6);  // Example 2's facts
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    EXPECT_EQ(SendsPartition(bundle, setup->anc()), partitioned)
        << "scheme " << static_cast<int>(scheme);
  }

  const std::pair<const char*, bool> sirups[] = {
      {"t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, Z), b(X, Z).\n", true},
      {"t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, n0), b(X, Y).\n", false},
      {"t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, Y), b(X, Y).\n", false},
  };
  for (const auto& [source, partitioned] : sirups) {
    SymbolTable symbols;
    Program program = ParseOrDie(source, &symbols);
    StatusOr<RewriteBundle> bundle =
        SirupBundle(program, ValidateOrDie(program), &symbols);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_EQ(SendsPartition(*bundle, symbols.Lookup("t")), partitioned)
        << source;
  }

  // General scheme: r1 is read by two rules (two sends) and top by none;
  // r1's own stratum has one send and partitions it.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "top(X, Y) :- r1(X, Z), e(Z, Y).\n"
      "anc(X, Y) :- r1(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols);
  std::vector<GeneralRuleSpec> specs(5);
  for (int r : {0, 2, 3}) specs[r].vars = {symbols.Intern("X")};
  for (int r : {1, 4}) specs[r].vars = {symbols.Intern("Z")};
  for (GeneralRuleSpec& spec : specs) {
    spec.h = DiscriminatingFunction::UniformHash(3, 9);
  }
  StatusOr<RewriteBundle> whole =
      RewriteGeneral(program, ValidateOrDie(program), 3, specs);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  for (const char* pred : {"r1", "top", "anc"}) {
    EXPECT_FALSE(SendsPartition(*whole, symbols.Lookup(pred))) << pred;
  }
  Program stratum;
  stratum.symbols = program.symbols;
  stratum.rules = {program.rules[0], program.rules[1]};
  StatusOr<RewriteBundle> lower = RewriteGeneral(
      stratum, ValidateOrDie(stratum), 3, {specs[0], specs[1]});
  ASSERT_TRUE(lower.ok()) << lower.status().ToString();
  EXPECT_TRUE(SendsPartition(*lower, symbols.Lookup("r1")));
}

// Which predicates route every row back to the processor that derived
// it (RewriteBundle::self_routed), over the scheme catalogue, this
// file's sirups and hand-built general-scheme bundles.
TEST(SelfRoutingRuleTest, SelfRoutedPredicatesPerScheme) {
  const std::pair<AncestorScheme, bool> ancestor[] = {
      {AncestorScheme::kExample1, true},  {AncestorScheme::kExample2, false},
      {AncestorScheme::kExample3, false}, {AncestorScheme::kGeneral, false},
      {AncestorScheme::kTradeoff, false}, {AncestorScheme::kAuto, true},
  };
  for (const auto& [scheme, self_routed] : ancestor) {
    auto setup = MakeAncestorSetup();
    GenChain(&setup->symbols, &setup->edb, "par", 6);  // Example 2's facts
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
    EXPECT_EQ(bundle.self_routed.count(setup->anc()) > 0, self_routed)
        << "scheme " << static_cast<int>(scheme);
  }

  // SirupBundle keys the recursive rule on Y, which its head holds at
  // column 1 while the send reads column 0.
  for (const char* source : {
           "t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, Z), b(X, Z).\n",
           "t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, n0), b(X, Y).\n",
           "t(X, Y) :- s(X, Y).\nt(X, Y) :- t(Y, Y), b(X, Y).\n",
       }) {
    SymbolTable symbols;
    Program program = ParseOrDie(source, &symbols);
    StatusOr<RewriteBundle> bundle =
        SirupBundle(program, ValidateOrDie(program), &symbols);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_TRUE(bundle->self_routed.empty()) << source;
  }

  // Same generation: sg(U, V) is read where the head holds X and Y, and
  // no dataflow cycle exists, so no scheme keeps a row at home.
  for (SchemeKind kind : {SchemeKind::kAuto, SchemeKind::kExample2,
                          SchemeKind::kExample3, SchemeKind::kGeneral,
                          SchemeKind::kTradeoff}) {
    SymbolTable symbols;
    Program program = ParseOrDie(
        "sg(X, Y) :- flat(X, Y).\n"
        "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
        &symbols);
    ProgramInfo info = ValidateOrDie(program);
    Database edb;
    GenChain(&symbols, &edb, "flat", 4);
    SchemeRequest request;
    request.kind = kind;
    StatusOr<BuiltScheme> built = BuildScheme(program, info, edb, request);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_TRUE(built->bundle.self_routed.empty())
        << "scheme " << static_cast<int>(kind);
  }

  // The general scheme with hand-picked keys: the recursive rule sends
  // anc(Z, Y) by h(Y), so the exit rule must key on the head's Y too.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  const Symbol anc = symbols.Lookup("anc");
  auto general = [&](const char* exit_var, const char* rec_var) {
    std::vector<GeneralRuleSpec> specs(2);
    specs[0].vars = {symbols.Intern(exit_var)};
    specs[1].vars = {symbols.Intern(rec_var)};
    for (GeneralRuleSpec& spec : specs) {
      spec.h = DiscriminatingFunction::UniformHash(3, 9);
    }
    StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    return bundle.ok() && bundle->self_routed.count(anc) > 0;
  };
  EXPECT_TRUE(general("Y", "Y"));
  EXPECT_FALSE(general("X", "Y"));  // h(X) = i, but rows go by h(Y)
  EXPECT_FALSE(general("X", "Z"));  // the general scheme's default
}

}  // namespace
}  // namespace pdatalog
