#include "core/dataflow_graph.h"
#include "core/schemes.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

LinearSirup MakeSirup(const char* source, SymbolTable* symbols) {
  Program program = ParseOrDie(source, symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  EXPECT_TRUE(sirup.ok()) << sirup.status().ToString();
  return std::move(*sirup);
}

TEST(DataflowGraphTest, Figure1ChainGraph) {
  // Example 4 / Figure 1: p(U,V,W) :- p(V,W,Z), q(U,Z) gives 1 -> 2 -> 3.
  SymbolTable symbols;
  LinearSirup sirup = MakeSirup(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  DataflowGraph graph = DataflowGraph::Build(sirup);
  EXPECT_EQ(graph.ToString(), "1 -> 2, 2 -> 3");
  EXPECT_FALSE(graph.HasCycle());
  EXPECT_EQ(graph.vertices, (std::vector<int>{0, 1, 2}));
}

TEST(DataflowGraphTest, Figure2AncestorSelfLoop) {
  // Example 5 / Figure 2: the ancestor rule has the self-loop 2 -> 2.
  SymbolTable symbols;
  LinearSirup sirup =
      MakeSirup(testing_util::kAncestorProgram, &symbols);
  DataflowGraph graph = DataflowGraph::Build(sirup);
  EXPECT_EQ(graph.ToString(), "2 -> 2");
  EXPECT_TRUE(graph.HasCycle());
  EXPECT_EQ(graph.CyclePositions(), (std::vector<int>{1}));
}

TEST(DataflowGraphTest, LongerCycleDetected) {
  // p(X, Y) :- p(Y, X), ...: positions swap, a 2-cycle.
  SymbolTable symbols;
  LinearSirup sirup = MakeSirup(
      "p(X, Y) :- s(X, Y).\n"
      "p(X, Y) :- p(Y, X), q(X, Y).\n",
      &symbols);
  DataflowGraph graph = DataflowGraph::Build(sirup);
  EXPECT_TRUE(graph.HasCycle());
  EXPECT_EQ(graph.CyclePositions(), (std::vector<int>{0, 1}));
}

TEST(DataflowGraphTest, ConstantPositionsIgnored) {
  SymbolTable symbols;
  LinearSirup sirup = MakeSirup(
      "p(X, Y) :- s(X, Y).\n"
      "p(X, c) :- p(c, X), q(X).\n",
      &symbols);
  DataflowGraph graph = DataflowGraph::Build(sirup);
  // Y_1 = c (constant), Y_2 = X = X_1: edge 2 -> 1 only.
  EXPECT_EQ(graph.ToString(), "2 -> 1");
  EXPECT_FALSE(graph.HasCycle());
}

TEST(CommunicationFreeTest, AcyclicGraphFails) {
  SymbolTable symbols;
  LinearSirup sirup = MakeSirup(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  StatusOr<LinearSchemeOptions> scheme =
      CommunicationFreeScheme(sirup, 4);
  EXPECT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CommunicationFreeTest, AncestorRecoversExample1) {
  // Theorem 3 on the ancestor program must rediscover v(r) = v(e) = <Y>.
  SymbolTable symbols;
  LinearSirup sirup =
      MakeSirup(testing_util::kAncestorProgram, &symbols);
  StatusOr<LinearSchemeOptions> scheme =
      CommunicationFreeScheme(sirup, 4);
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  ASSERT_EQ(scheme->v_r.size(), 1u);
  EXPECT_EQ(symbols.Name(scheme->v_r[0]), "Y");
  EXPECT_EQ(symbols.Name(scheme->v_e[0]), "Y");
}

// The constructive guarantee of Theorem 3, executed: for cyclic dataflow
// graphs the derived scheme produces zero cross-processor traffic.
class TheoremThreeTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

INSTANTIATE_TEST_SUITE_P(
    CyclicSirups, TheoremThreeTest,
    ::testing::Values(
        std::make_tuple("ancestor",
                        "anc(X, Y) :- par(X, Y).\n"
                        "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"),
        std::make_tuple("swap",
                        "p(X, Y) :- par(X, Y).\n"
                        "p(X, Y) :- p(Y, X), par(X, Y).\n"),
        std::make_tuple("rotate3",
                        "p(X, Y, Z) :- s(X, Y, Z).\n"
                        "p(X, Y, Z) :- p(Y, Z, X), q(X).\n")),
    [](const auto& info) { return std::get<0>(info.param); });

TEST_P(TheoremThreeTest, DerivedSchemeIsCommunicationFree) {
  SymbolTable symbols;
  Program program = ParseOrDie(std::get<1>(GetParam()), &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());

  StatusOr<LinearSchemeOptions> scheme = CommunicationFreeScheme(*sirup, 4);
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 4, *scheme);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Database edb;
  // Populate every base predicate of the program with random binary or
  // unary data.
  for (Symbol p : info.predicates) {
    if (!info.IsBase(p)) continue;
    int arity = info.arity.at(p);
    SplitMix64 rng(7 + p);
    Relation& rel = edb.GetOrCreate(p, arity);
    for (int i = 0; i < 60; ++i) {
      Value vals[3];
      for (int c = 0; c < arity; ++c) {
        vals[c] = symbols.Intern("n" + std::to_string(rng.NextBelow(12)));
      }
      rel.Insert(Tuple(vals, arity));
    }
  }

  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cross_tuples, 0u);

  // And the answer still matches the sequential evaluation.
  Database seq_db;
  for (const auto& [pred, rel] : edb.relations()) {
    if (!info.IsBase(pred)) continue;
    seq_db.GetOrCreate(pred, rel->arity()).InsertAll(*rel);
  }
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &stats).ok());
  Symbol out = *info.derived.begin();
  EXPECT_EQ(result->output.Find(out)->ToSortedString(symbols),
            seq_db.Find(out)->ToSortedString(symbols));
}

}  // namespace
}  // namespace pdatalog
