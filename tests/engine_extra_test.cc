// Additional engine coverage: wider arities, multi-variable and
// repeated-variable discriminating sequences, custom functions, skew,
// and pooling-cost accounting.
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

// The arity-3 sirup of the paper's Examples 4/7, with random data.
struct Arity3Fixture {
  SymbolTable symbols;
  Program program;
  ProgramInfo info;
  LinearSirup sirup;

  Arity3Fixture() {
    program = ParseOrDie(
        "p(U, V, W) :- s(U, V, W).\n"
        "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
        &symbols);
    info = ValidateOrDie(program);
    StatusOr<LinearSirup> s = ExtractLinearSirup(program, info);
    EXPECT_TRUE(s.ok());
    sirup = std::move(*s);
  }

  Database MakeEdb(uint64_t seed) {
    Database edb;
    SplitMix64 rng(seed);
    Relation& s = edb.GetOrCreate(symbols.Intern("s"), 3);
    Relation& q = edb.GetOrCreate(symbols.Intern("q"), 2);
    auto node = [&](uint64_t i) {
      return symbols.Intern("n" + std::to_string(i));
    };
    for (int i = 0; i < 40; ++i) {
      s.Insert(Tuple{node(rng.NextBelow(10)), node(rng.NextBelow(10)),
                     node(rng.NextBelow(10))});
      q.Insert(Tuple{node(rng.NextBelow(10)), node(rng.NextBelow(10))});
    }
    return edb;
  }

  std::string Sequential(uint64_t seed, EvalStats* stats) {
    Database db = MakeEdb(seed);
    EvalStats local;
    EXPECT_TRUE(SemiNaiveEvaluate(program, info, &db,
                                  stats ? stats : &local)
                    .ok());
    return db.Find(symbols.Lookup("p"))->ToSortedString(symbols);
  }
};

TEST(Arity3EngineTest, MultiVariableSequenceMatchesSequential) {
  Arity3Fixture fx;
  EvalStats seq;
  std::string expected = fx.Sequential(3, &seq);

  LinearSchemeOptions options;
  // Full recursive-atom sequence <V, W, Z>; exit sequence <U, V, W>.
  options.v_r = {fx.symbols.Intern("V"), fx.symbols.Intern("W"),
                 fx.symbols.Intern("Z")};
  options.v_e = {fx.symbols.Intern("U"), fx.symbols.Intern("V"),
                 fx.symbols.Intern("W")};
  options.h = DiscriminatingFunction::UniformHash(5);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(fx.program, fx.info, fx.sirup, 5, options);
  ASSERT_TRUE(bundle.ok());

  Database edb = fx.MakeEdb(3);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      result->output.Find(fx.symbols.Lookup("p"))->ToSortedString(fx.symbols),
      expected);
  EXPECT_EQ(result->total_firings, seq.firings);
}

TEST(Arity3EngineTest, LinearRemappedFunctionMatchesSequential) {
  Arity3Fixture fx;
  std::string expected = fx.Sequential(4, nullptr);

  LinearSchemeOptions options;
  options.v_r = {fx.symbols.Intern("V"), fx.symbols.Intern("W"),
                 fx.symbols.Intern("Z")};
  options.v_e = {fx.symbols.Intern("U"), fx.symbols.Intern("V"),
                 fx.symbols.Intern("W")};
  // The paper's Example 7 function g(a1) - g(a2) + g(a3), remapped onto
  // processors {0..3}.
  options.h = WithDenseRemap(DiscriminatingFunction::Linear({1, -1, 1}));
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(fx.program, fx.info, fx.sirup, 4, options);
  ASSERT_TRUE(bundle.ok());

  Database edb = fx.MakeEdb(4);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(
      result->output.Find(fx.symbols.Lookup("p"))->ToSortedString(fx.symbols),
      expected);
}

TEST(EngineExtraTest, RepeatedVariableInSequence) {
  // v(r) = <Z, Z>: legal (a sequence, not a set); must behave like a
  // function of Z alone.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 7);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  LinearSchemeOptions options;
  Symbol z = setup->symbols.Intern("Z");
  options.v_r = {z, z};
  options.v_e = {setup->symbols.Intern("X"), setup->symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(3);
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, 3, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
}

TEST(EngineExtraTest, CustomDiscriminatingFunction) {
  // A user-supplied routing policy: odd-length constant names to
  // processor 0, others to 1 (pure and in-range, as required).
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 20, 40, 8);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  LinearSchemeOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h = DiscriminatingFunction::Custom(
      [](const Value* values, int n) {
        return static_cast<int>(values[n - 1] % 2);
      },
      2);
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, 2, options);
  ASSERT_TRUE(bundle.ok());
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
}

TEST(EngineExtraTest, MaximallySkewedFunctionStillCorrect) {
  // Constant(0) used as the shared h of the Section 3 scheme: all work
  // lands on processor 0, others stay idle; the answer is unchanged.
  auto setup = MakeAncestorSetup();
  GenTree(&setup->symbols, &setup->edb, "par", 2, 5);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  LinearSchemeOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h = DiscriminatingFunction::Constant(0);
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, 4, options);
  ASSERT_TRUE(bundle.ok());
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->workers[1].firings, 0u);
  EXPECT_EQ(result->workers[2].firings, 0u);
}

TEST(EngineExtraTest, PoolingCostAccounted) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 10);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  // Example 3's sends partition anc, so pooling reads the t_in
  // relations: workers 1..P-1 ship theirs to collector 0.
  uint64_t remote_in = 0;
  for (int w = 1; w < 3; ++w) remote_in += result->workers[w].in_inserted;
  EXPECT_EQ(result->pooling_messages, remote_in);
  // Modelled as one 18-byte frame per arity-2 tuple: 6-byte header,
  // two u32 values, u32 checksum.
  EXPECT_EQ(result->pooling_bytes, remote_in * 18);
}

TEST(EngineExtraTest, SingleProcessorPoolingIsFree) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 10);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 1);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pooling_messages, 0u);
}

TEST(EngineExtraTest, SameGenerationAsLinearSirup) {
  // same_generation is itself a canonical linear sirup; run it under
  // the Section 3 scheme partitioned on the join variable V.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());

  auto fill = [&](Database* db) {
    GenFlat(&symbols, db, "up", 50, 10, 3);
    SplitMix64 rng(4);
    Relation& flat = db->GetOrCreate(symbols.Intern("flat"), 2);
    Relation& down = db->GetOrCreate(symbols.Intern("down"), 2);
    for (int i = 0; i < 20; ++i) {
      flat.Insert(
          Tuple{symbols.Intern("p" + std::to_string(rng.NextBelow(10))),
                symbols.Intern("p" + std::to_string(rng.NextBelow(10)))});
      down.Insert(
          Tuple{symbols.Intern("p" + std::to_string(rng.NextBelow(10))),
                symbols.Intern("c" + std::to_string(rng.NextBelow(50)))});
    }
  };

  Database seq_db;
  fill(&seq_db);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("U"), symbols.Intern("V")};
  options.v_e = {symbols.Intern("X"), symbols.Intern("Y")};
  options.h = DiscriminatingFunction::UniformHash(4);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 4, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Database edb;
  fill(&edb);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(
      result->output.Find(symbols.Lookup("sg"))->ToSortedString(symbols),
      seq_db.Find(symbols.Lookup("sg"))->ToSortedString(symbols));
  EXPECT_EQ(result->total_firings, seq.firings);
}

}  // namespace
}  // namespace pdatalog
