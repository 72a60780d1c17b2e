#include "eval/stratify.h"

#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/random_program.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

// Index of the stratum containing predicate `name`, or -1.
int StratumOf(const Stratification& strat, const SymbolTable& symbols,
              const char* name) {
  Symbol sym = symbols.Lookup(name);
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    for (Symbol p : strat.strata[s]) {
      if (p == sym) return static_cast<int>(s);
    }
  }
  return -1;
}

TEST(StratifyTest, LayeredViewsOrderedBottomUp) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "lvl1(X) :- base(X).\n"
      "lvl2(X) :- lvl1(X).\n"
      "lvl3(X) :- lvl2(X).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Stratification strat = Stratify(program, info);
  ASSERT_EQ(strat.strata.size(), 3u);
  EXPECT_LT(StratumOf(strat, symbols, "lvl1"),
            StratumOf(strat, symbols, "lvl2"));
  EXPECT_LT(StratumOf(strat, symbols, "lvl2"),
            StratumOf(strat, symbols, "lvl3"));
}

TEST(StratifyTest, MutualRecursionSharesStratum) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "even(X) :- zero(X).\n"
      "even(Y) :- odd(X), edge(X, Y).\n"
      "odd(Y) :- even(X), edge(X, Y).\n"
      "top(X) :- even(X).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Stratification strat = Stratify(program, info);
  ASSERT_EQ(strat.strata.size(), 2u);
  EXPECT_EQ(StratumOf(strat, symbols, "even"),
            StratumOf(strat, symbols, "odd"));
  EXPECT_GT(StratumOf(strat, symbols, "top"),
            StratumOf(strat, symbols, "even"));
}

TEST(StratifyTest, SelfRecursionIsItsOwnComponent) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Stratification strat = Stratify(program, info);
  ASSERT_EQ(strat.strata.size(), 1u);
  EXPECT_EQ(strat.rules_by_stratum[0].size(), 2u);
}

TEST(StratifyTest, RulesAssignedToHeadStratum) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "a(X) :- base(X).\n"
      "b(X) :- a(X).\n"
      "b(X) :- b(X), a(X).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Stratification strat = Stratify(program, info);
  ASSERT_EQ(strat.strata.size(), 2u);
  int a = StratumOf(strat, symbols, "a");
  int b = StratumOf(strat, symbols, "b");
  EXPECT_EQ(strat.rules_by_stratum[a], (std::vector<int>{0}));
  EXPECT_EQ(strat.rules_by_stratum[b], (std::vector<int>{1, 2}));
}

TEST(StratifyTest, StratifiedEvaluationMatchesMonolithic) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    SymbolTable symbols;
    RandomProgramOptions gen;
    gen.seed = seed;
    gen.num_derived = 4;
    StatusOr<Program> program = GenerateRandomProgram(&symbols, gen);
    ASSERT_TRUE(program.ok());
    ProgramInfo info = ValidateOrDie(*program);

    Database mono_db;
    ASSERT_TRUE(mono_db.LoadFacts(*program).ok());
    EvalStats mono;
    ASSERT_TRUE(
        SemiNaiveEvaluate(*program, info, &mono_db, &mono).ok());

    Database strat_db;
    ASSERT_TRUE(strat_db.LoadFacts(*program).ok());
    EvalOptions options;
    options.stratified = true;
    EvalStats strat;
    ASSERT_TRUE(
        SemiNaiveEvaluate(*program, info, &strat_db, &strat, options).ok());

    for (Symbol p : info.derived) {
      EXPECT_EQ(strat_db.Find(p)->ToSortedString(symbols),
                mono_db.Find(p)->ToSortedString(symbols))
          << "seed " << seed << " pred " << symbols.Name(p);
    }
    EXPECT_EQ(strat.firings, mono.firings) << "seed " << seed;
    EXPECT_EQ(strat.tuples_inserted, mono.tuples_inserted)
        << "seed " << seed;
  }
}

TEST(StratifyTest, StratifiedSavesWastedVariantRuns) {
  // Layered closures: the top layer's rules should not run during the
  // bottom layer's many rounds. rows_examined is the work proxy.
  SymbolTable symbols;
  const char* source =
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "r2(X, Y) :- r1(X, Y).\n"
      "r2(X, Y) :- r1(X, Z), r2(Z, Y).\n";
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);

  auto run = [&](bool stratified) {
    Database db;
    Relation& e = db.GetOrCreate(symbols.Lookup("e"), 2);
    for (Value i = 0; i < 30; ++i) {
      e.Insert(Tuple{symbols.Intern("n" + std::to_string(i)),
                     symbols.Intern("n" + std::to_string(i + 1))});
    }
    EvalOptions options;
    options.stratified = stratified;
    EvalStats stats;
    EXPECT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats, options).ok());
    return stats;
  };

  EvalStats mono = run(false);
  EvalStats strat = run(true);
  EXPECT_EQ(strat.firings, mono.firings);
  EXPECT_LE(strat.rows_examined, mono.rows_examined);
}

TEST(StratifyTest, EmptyProgram) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(a).\n", &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Stratification strat = Stratify(program, info);
  EXPECT_TRUE(strat.strata.empty());
}

}  // namespace
}  // namespace pdatalog
