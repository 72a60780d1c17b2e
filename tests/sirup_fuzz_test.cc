// Differential fuzzing of the linear-sirup rewriters: random canonical
// sirups (repeated variables, constants in heads, partial variable
// overlap) run under every applicable Section 3/5/6 scheme and compared
// against the sequential evaluation.
#include "core/schemes.h"
#include "eval/naive.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/random_program.h"

namespace pdatalog {
namespace {

class SirupFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SirupFuzzTest,
                         ::testing::Range<uint64_t>(1, 31));

TEST_P(SirupFuzzTest, AllApplicableSchemesMatchSequential) {
  uint64_t seed = GetParam();
  SymbolTable symbols;
  RandomSirupOptions options;
  options.seed = seed;
  StatusOr<Program> program = GenerateRandomSirup(&symbols, options);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ProgramInfo info;
  ASSERT_TRUE(Validate(*program, &info).ok());
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(*program, info);
  ASSERT_TRUE(sirup.ok()) << "seed " << seed << ": "
                          << sirup.status().ToString();

  // Sequential reference.
  Database seq_db;
  ASSERT_TRUE(seq_db.LoadFacts(*program).ok());
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(*program, info, &seq_db, &seq).ok());
  std::string expected =
      seq_db.Find(sirup->t)->ToSortedString(symbols);

  int schemes_run = 0;

  // Hash partitioning on each single recursive-atom variable, v(e)
  // chosen at the matching exit-head column.
  std::vector<Symbol> y = sirup->BodyVarsY();
  std::vector<Symbol> z = sirup->ExitVarsZ();
  for (int pos = 0; pos < sirup->arity(); ++pos) {
    if (y[pos] == kInvalidSymbol) continue;  // constant position
    LinearSchemeOptions scheme;
    scheme.v_r = {y[pos]};
    scheme.v_e = {z[pos]};
    scheme.h = DiscriminatingFunction::UniformHash(3, seed);
    StatusOr<RewriteBundle> bundle =
        RewriteLinearSirup(*program, info, *sirup, 3, scheme);
    ASSERT_TRUE(bundle.ok()) << "seed " << seed << " pos " << pos << ": "
                             << bundle.status().ToString();
    Database edb;
    ASSERT_TRUE(edb.LoadFacts(*program).ok());
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
    ASSERT_TRUE(result.ok()) << "seed " << seed << " pos " << pos << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->output.Find(sirup->t)->ToSortedString(symbols),
              expected)
        << "seed " << seed << " v(r)=<" << symbols.Name(y[pos]) << ">";
    EXPECT_LE(result->total_firings, seq.firings) << "seed " << seed;
    ++schemes_run;
  }

  // Theorem 3 scheme, when the dataflow graph has a cycle; must be
  // communication-free.
  StatusOr<LinearSchemeOptions> free_scheme =
      CommunicationFreeScheme(*sirup, 3, seed);
  if (free_scheme.ok()) {
    StatusOr<RewriteBundle> bundle =
        RewriteLinearSirup(*program, info, *sirup, 3, *free_scheme);
    ASSERT_TRUE(bundle.ok()) << "seed " << seed;
    Database edb;
    ASSERT_TRUE(edb.LoadFacts(*program).ok());
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_EQ(result->output.Find(sirup->t)->ToSortedString(symbols),
              expected)
        << "seed " << seed << " (theorem3)";
    EXPECT_EQ(result->cross_tuples, 0u) << "seed " << seed;
    ++schemes_run;
  }

  // Section 6 keep-local scheme (requires every v(r) variable in Y;
  // pick the first variable position).
  for (int pos = 0; pos < sirup->arity(); ++pos) {
    if (y[pos] == kInvalidSymbol) continue;
    TradeoffOptions scheme;
    scheme.v_r = {y[pos]};
    scheme.v_e = {z[pos]};
    scheme.h_prime = DiscriminatingFunction::UniformHash(3, seed);
    for (int i = 0; i < 3; ++i) {
      scheme.h_i.push_back(DiscriminatingFunction::Constant(i));
    }
    StatusOr<RewriteBundle> bundle =
        RewriteTradeoff(*program, info, *sirup, 3, scheme);
    ASSERT_TRUE(bundle.ok()) << "seed " << seed;
    Database edb;
    ASSERT_TRUE(edb.LoadFacts(*program).ok());
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_EQ(result->output.Find(sirup->t)->ToSortedString(symbols),
              expected)
        << "seed " << seed << " (keep-local)";
    EXPECT_EQ(result->cross_tuples, 0u) << "seed " << seed;
    EXPECT_GE(result->total_firings, seq.firings) << "seed " << seed;
    ++schemes_run;
    break;  // one position suffices for the keep-local family
  }

  // Every generated sirup admits at least one scheme (the safety
  // repair guarantees at least one variable in the recursive atom
  // whenever the head has variables; fully-constant sirups may not).
  if (schemes_run == 0) {
    GTEST_SKIP() << "seed " << seed
                 << ": recursive atom has no variable positions";
  }
}

TEST(SirupFuzzStructureTest, GeneratorsProduceCanonicalSirups) {
  int extracted = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SymbolTable symbols;
    RandomSirupOptions options;
    options.seed = seed;
    StatusOr<Program> program = GenerateRandomSirup(&symbols, options);
    ASSERT_TRUE(program.ok());
    ProgramInfo info;
    ASSERT_TRUE(Validate(*program, &info).ok());
    if (ExtractLinearSirup(*program, info).ok()) ++extracted;
  }
  EXPECT_EQ(extracted, 30);
}

}  // namespace
}  // namespace pdatalog
