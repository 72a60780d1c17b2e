#include "eval/incremental.h"

#include <string>

#include "eval/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/random_program.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

struct AncestorInc {
  SymbolTable symbols;
  Program program;
  ProgramInfo info;

  AncestorInc() {
    program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
    info = ValidateOrDie(program);
  }

  Tuple Edge(const char* a, const char* b) {
    return Tuple{symbols.Intern(a), symbols.Intern(b)};
  }
};

TEST(IncrementalTest, FirstEvaluateMatchesBatch) {
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  Symbol par = fx.symbols.Lookup("par");
  ASSERT_TRUE(inc->AddFact(par, fx.Edge("a", "b")).ok());
  ASSERT_TRUE(inc->AddFact(par, fx.Edge("b", "c")).ok());
  ASSERT_TRUE(inc->Evaluate().ok());

  Database batch;
  batch.GetOrCreate(par, 2).Insert(fx.Edge("a", "b"));
  batch.Find(par)->Contains(fx.Edge("a", "b"));
  batch.GetOrCreate(par, 2).Insert(fx.Edge("b", "c"));
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(fx.program, fx.info, &batch, &stats).ok());

  Symbol anc = fx.symbols.Lookup("anc");
  EXPECT_EQ(inc->Find(anc)->ToSortedString(fx.symbols),
            batch.Find(anc)->ToSortedString(fx.symbols));
}

TEST(IncrementalTest, AddingAnEdgeExtendsTheClosure) {
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  Symbol par = fx.symbols.Lookup("par");
  Symbol anc = fx.symbols.Lookup("anc");

  ASSERT_TRUE(inc->AddFact(par, fx.Edge("a", "b")).ok());
  ASSERT_TRUE(inc->Evaluate().ok());
  EXPECT_EQ(inc->Find(anc)->size(), 1u);

  // Bridge: now a->b->c and the transitive pair appear.
  ASSERT_TRUE(inc->AddFact(par, fx.Edge("b", "c")).ok());
  StatusOr<EvalStats> batch = inc->Evaluate();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(inc->Find(anc)->size(), 3u);
  EXPECT_TRUE(inc->Find(anc)->Contains(fx.Edge("a", "c")));
  EXPECT_GT(batch->firings, 0u);
}

TEST(IncrementalTest, EvaluateIsIdempotentWithoutNewFacts) {
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  Symbol par = fx.symbols.Lookup("par");
  ASSERT_TRUE(inc->AddFact(par, fx.Edge("a", "b")).ok());
  ASSERT_TRUE(inc->Evaluate().ok());
  StatusOr<EvalStats> second = inc->Evaluate();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->firings, 0u);
  EXPECT_EQ(second->rounds, 0);
}

TEST(IncrementalTest, DuplicateFactIsNoOp) {
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  Symbol par = fx.symbols.Lookup("par");
  StatusOr<bool> first = inc->AddFact(par, fx.Edge("a", "b"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  ASSERT_TRUE(inc->Evaluate().ok());
  StatusOr<bool> again = inc->AddFact(par, fx.Edge("a", "b"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  StatusOr<EvalStats> batch = inc->Evaluate();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->firings, 0u);
}

TEST(IncrementalTest, DerivedFactRejected) {
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  StatusOr<bool> bad =
      inc->AddFact(fx.symbols.Lookup("anc"), fx.Edge("a", "b"));
  EXPECT_FALSE(bad.ok());
}

TEST(IncrementalTest, IncrementalWorkIsLessThanRecomputation) {
  // Grow a chain one edge at a time; each increment should cost far
  // fewer firings than recomputing the whole closure.
  AncestorInc fx;
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(fx.program, fx.info);
  ASSERT_TRUE(inc.ok());
  Symbol par = fx.symbols.Lookup("par");
  auto node = [&](int i) {
    return fx.symbols.Intern("n" + std::to_string(i));
  };
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(inc->AddFact(par, Tuple{node(i), node(i + 1)}).ok());
    ASSERT_TRUE(inc->Evaluate().ok());
  }
  Symbol anc = fx.symbols.Lookup("anc");
  EXPECT_EQ(inc->Find(anc)->size(), 30u * 31u / 2u);
  // Total incremental firings equal the one-shot batch firings: each
  // derivation still happens exactly once across all increments.
  Database batch;
  Relation& rel = batch.GetOrCreate(par, 2);
  for (int i = 0; i < 30; ++i) rel.Insert(Tuple{node(i), node(i + 1)});
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(fx.program, fx.info, &batch, &stats).ok());
  EXPECT_EQ(inc->stats().firings, stats.firings);
}

TEST(IncrementalTest, RandomProgramsMatchBatchUnderIncrementalLoading) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SymbolTable symbols;
    RandomProgramOptions gen;
    gen.seed = seed;
    StatusOr<Program> program = GenerateRandomProgram(&symbols, gen);
    ASSERT_TRUE(program.ok());
    ProgramInfo info = ValidateOrDie(*program);

    // Batch.
    Database batch;
    ASSERT_TRUE(batch.LoadFacts(*program).ok());
    EvalStats stats;
    ASSERT_TRUE(SemiNaiveEvaluate(*program, info, &batch, &stats).ok());

    // Incremental: feed facts in three chunks with Evaluate() between.
    StatusOr<IncrementalEvaluator> inc =
        IncrementalEvaluator::Create(*program, info);
    ASSERT_TRUE(inc.ok());
    for (size_t f = 0; f < program->facts.size(); ++f) {
      const Atom& fact = program->facts[f];
      Value vals[32];
      for (int c = 0; c < fact.arity(); ++c) vals[c] = fact.args[c].sym;
      ASSERT_TRUE(
          inc->AddFact(fact.predicate, Tuple(vals, fact.arity())).ok());
      if (f % (program->facts.size() / 3 + 1) == 0) {
        ASSERT_TRUE(inc->Evaluate().ok());
      }
    }
    ASSERT_TRUE(inc->Evaluate().ok());
    // Non-redundancy across batches: every ground substitution fires
    // exactly once however the facts were chunked.
    EXPECT_EQ(inc->stats().firings, stats.firings) << "seed " << seed;
    EXPECT_EQ(inc->stats().tuples_inserted, stats.tuples_inserted)
        << "seed " << seed;

    // Naive oracle.
    Database naive;
    ASSERT_TRUE(naive.LoadFacts(*program).ok());
    EvalStats naive_stats;
    ASSERT_TRUE(NaiveEvaluate(*program, info, &naive, &naive_stats).ok());

    for (Symbol p : info.derived) {
      const std::string incremental = inc->Find(p)->ToSortedString(symbols);
      EXPECT_EQ(incremental, batch.Find(p)->ToSortedString(symbols))
          << "seed " << seed << " pred " << symbols.Name(p);
      EXPECT_EQ(incremental, naive.Find(p)->ToSortedString(symbols))
          << "seed " << seed << " pred " << symbols.Name(p);
    }
  }
}

TEST(IncrementalTest, MutualRecursionIncrementally) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "even(X) :- zero(X).\n"
      "even(Y) :- odd(X), edge(X, Y).\n"
      "odd(Y) :- even(X), edge(X, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<IncrementalEvaluator> inc =
      IncrementalEvaluator::Create(program, info);
  ASSERT_TRUE(inc.ok());
  auto node = [&](int i) {
    return symbols.Intern("n" + std::to_string(i));
  };
  ASSERT_TRUE(
      inc->AddFact(symbols.Lookup("zero"), Tuple{node(0)}).ok());
  Symbol edge = symbols.Lookup("edge");
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(inc->AddFact(edge, Tuple{node(i), node(i + 1)}).ok());
    ASSERT_TRUE(inc->Evaluate().ok());
  }
  EXPECT_EQ(inc->Find(symbols.Lookup("even"))->size(), 4u);  // 0 2 4 6
  EXPECT_EQ(inc->Find(symbols.Lookup("odd"))->size(), 3u);   // 1 3 5
}

}  // namespace
}  // namespace pdatalog
