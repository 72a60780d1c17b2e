// A walkthrough of every numbered example in the paper, as tests. Each
// test cites the section it reproduces and checks the exact artifacts
// the paper states (rewritten rules, communication patterns, graphs).
#include "core/dataflow_graph.h"
#include "core/network_graph.h"
#include "core/schemes.h"
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

// --- Section 4.1, Example 1: v(r) = v(e) = <Y> ---------------------------

TEST(PaperExample1, RewrittenProgramMatchesPaper) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 3);
  // "Initialization: anc_out(X,Y) :- par(X,Y), h(Y) = i"
  // "Processing:     anc_out(X,Y) :- par(X,Z), anc(Z,Y), h(Y) = i"
  EXPECT_EQ(ToString(bundle.per_processor[2].rules[0], setup->symbols),
            "anc_out(X, Y) :- par(X, Y), h'(Y) = 2.");
  EXPECT_EQ(ToString(bundle.per_processor[2].rules[1], setup->symbols),
            "anc_out(X, Y) :- par(X, Z), anc_in(Z, Y), h(Y) = 2.");
}

TEST(PaperExample1, SendingRulesYieldNoTuples) {
  // "if i != j, then evaluating the sending rule from processor i to
  //  processor j does not yield any tuple. That is, anc_ij = empty."
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 60, 11);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 3);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_EQ(result->channel_matrix[i][j], 0u);
      }
    }
  }
}

TEST(PaperExample1, ParMustBeSharedForTheProcessingRule) {
  // "Since v(r) = <Y>, and Y does not appear in par(X,Z), it follows
  //  that par^i = par."
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 3);
  EXPECT_EQ(bundle.base_occurrences[1].access,
            BaseOccurrence::Access::kReplicated);
}

// --- Section 4.2, Example 2: arbitrary fragmentation ---------------------

TEST(PaperExample2, ProcessingReadsOnlyTheLocalFragment) {
  // "the execution of Q_i needs access to only a given fragment par^i
  //  of the par relation"
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 60, 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 3);
  for (const BaseOccurrence& occ : bundle.base_occurrences) {
    EXPECT_EQ(occ.access, BaseOccurrence::Access::kFragment);
  }
}

TEST(PaperExample2, AllTuplesCommunicatedToEveryProcessor) {
  // "Since the relation par^j is not available at processor i ... all
  //  tuples in anc_out^i are communicated to processor j."
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 60, 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 3);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cross_tuples + result->self_tuples,
            3 * result->out_tuples_total);
  // "the extra communication does not make the parallel execution
  //  either incorrect or redundant"
  EvalStats seq;
  std::string expected = SequentialAncestor(setup.get(), &seq);
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->total_firings, seq.firings);
}

// --- Section 4.3, Example 3: v(e) = <X>, v(r) = <Z> ----------------------

TEST(PaperExample3, EveryTupleProcessedByAUniqueProcessor) {
  // "every tuple is sent to, and processed by a unique processor."
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 60, 13);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cross_tuples + result->self_tuples,
            result->out_tuples_total);
}

TEST(PaperExample3, DisjointParAccess) {
  // "the accesses to the par relation by different processors do not
  //  overlap": both occurrences fragment (on different columns).
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  ASSERT_EQ(bundle.base_occurrences.size(), 2u);
  EXPECT_EQ(bundle.base_occurrences[0].access,
            BaseOccurrence::Access::kFragment);
  EXPECT_EQ(bundle.base_occurrences[0].positions, (std::vector<int>{0}));
  EXPECT_EQ(bundle.base_occurrences[1].access,
            BaseOccurrence::Access::kFragment);
  EXPECT_EQ(bundle.base_occurrences[1].positions, (std::vector<int>{1}));
}

// --- Section 5, Example 4 / Figure 1 --------------------------------------

TEST(PaperExample4, DataflowGraphIsTheChain) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  DataflowGraph graph = DataflowGraph::Build(*sirup);
  // "The edge 1 -> 2 is in the graph because the variable V appears in
  //  the first attribute position ... the edge 2 -> 3 because W ..."
  EXPECT_EQ(graph.ToString(), "1 -> 2, 2 -> 3");
}

// --- Section 5, Example 5 / Figure 2 --------------------------------------

TEST(PaperExample5, AncestorCycleMeansNoCommunication) {
  auto setup = MakeAncestorSetup();
  DataflowGraph graph = DataflowGraph::Build(setup->sirup);
  EXPECT_EQ(graph.ToString(), "2 -> 2");
  // "there is no requirement for communication between the processors
  //  when the discriminating variable is Z" [the body atom's second
  //  position variable, our Y].
  StatusOr<LinearSchemeOptions> scheme =
      CommunicationFreeScheme(setup->sirup, 4);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(setup->symbols.Name(scheme->v_r[0]), "Y");
}

// --- Section 5, Example 6 / Figure 3 --------------------------------------

TEST(PaperExample6, NoCommunicationFromP00ToP01OrP11) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "p(X, Y) :- q(X, Y).\n"
      "p(X, Y) :- p(Y, Z), r(X, Z).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  // h(a,b) = (g(a), g(b)) encoded as 2 g(a) + g(b): (00)=0, (01)=1,
  // (10)=2, (11)=3.
  StatusOr<NetworkGraph> graph = DeriveNetworkGraph(
      *sirup, {symbols.Intern("Y"), symbols.Intern("Z")},
      {symbols.Intern("X"), symbols.Intern("Y")}, {2, 1}, {2, 1});
  ASSERT_TRUE(graph.ok());
  // "there is no communication from processor (00) to processor (01)
  //  ... By the same argument, there is no communication from (00) to
  //  (11). On the other hand ... there is the possibility of
  //  communication from processor (00) to processor (10)."
  auto rec_edge = [&](int from, int to) {
    return std::count(graph->rec_edges.begin(), graph->rec_edges.end(),
                      std::make_pair(from, to)) > 0;
  };
  EXPECT_FALSE(rec_edge(0, 1));
  EXPECT_FALSE(rec_edge(0, 3));
  EXPECT_TRUE(rec_edge(0, 2));
}

// --- Section 5, Example 7 / Figure 4 --------------------------------------

TEST(PaperExample7, ExitSystemOnlySolvesTrivially) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  StatusOr<NetworkGraph> graph = DeriveNetworkGraph(
      *sirup,
      {symbols.Intern("V"), symbols.Intern("W"), symbols.Intern("Z")},
      {symbols.Intern("U"), symbols.Intern("V"), symbols.Intern("W")},
      {1, -1, 1}, {1, -1, 1});
  ASSERT_TRUE(graph.ok());
  // "The only solutions of equations (1) and (2) above are when i = j."
  for (const auto& [from, to] : graph->exit_edges) EXPECT_EQ(from, to);
  // "the range of h is {0, 1, -1, 2} and thus P = {0, 1, -1, 2}".
  EXPECT_EQ(graph->processors, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(PaperExample7, RecursiveSystemMatchesEquations4And5) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  StatusOr<NetworkGraph> graph = DeriveNetworkGraph(
      *sirup,
      {symbols.Intern("V"), symbols.Intern("W"), symbols.Intern("Z")},
      {symbols.Intern("U"), symbols.Intern("V"), symbols.Intern("W")},
      {1, -1, 1}, {1, -1, 1});
  ASSERT_TRUE(graph.ok());
  // "x1 - x2 + x3 = v, x2 - x3 + x4 = u subject to x in {0,1}":
  // solutions (u, v) are the recursive edges.
  std::vector<std::pair<int, int>> expected;
  for (int bits = 0; bits < 16; ++bits) {
    int x1 = bits & 1, x2 = (bits >> 1) & 1, x3 = (bits >> 2) & 1,
        x4 = (bits >> 3) & 1;
    expected.emplace_back(x2 - x3 + x4, x1 - x2 + x3);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(graph->rec_edges, expected);
}

// --- Section 7, Example 8: non-linear ancestor ----------------------------

TEST(PaperExample8, RewrittenProgramMatchesPaper) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(2);
  // "Suppose v(r1) = <Y>, and v(r2) = <Z>, and h1 = h2 = h."
  specs[0].vars = {symbols.Intern("Y")};
  specs[0].h = DiscriminatingFunction::UniformHash(2);
  specs[1].vars = {symbols.Intern("Z")};
  specs[1].h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 2, specs);
  ASSERT_TRUE(bundle.ok());
  // "Processing: anc_out(X,Y) :- par(X,Y), h(Y) = i
  //              anc_out(X,Y) :- anc_in(X,Z), anc_in(Z,Y), h(Z) = i"
  EXPECT_EQ(ToString(bundle->per_processor[1].rules[0], symbols),
            "anc_out(X, Y) :- par(X, Y), h1(Y) = 1.");
  EXPECT_EQ(ToString(bundle->per_processor[1].rules[1], symbols),
            "anc_out(X, Y) :- anc_in(X, Z), anc_in(Z, Y), h2(Z) = 1.");
  // "Sending: anc_ij(X,Z) :- anc_out(X,Z), h(Z) = j
  //           anc_ij(Z,Y) :- anc_out(Z,Y), h(Z) = j"
  ASSERT_EQ(bundle->sends[0].size(), 2u);
  EXPECT_EQ(bundle->sends[0][0].var_positions, (std::vector<int>{1}));
  EXPECT_EQ(bundle->sends[0][1].var_positions, (std::vector<int>{0}));
}

TEST(PaperExample8, EachTupleSentToAtMostTwoProcessors) {
  // A tuple (a, b) is routed to h(b) (as anc(X,Z)) and h(a) (as
  // anc(Z,Y)): at most two destinations, deduplicated when equal.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("Y")};
  specs[0].h = DiscriminatingFunction::UniformHash(4);
  specs[1].vars = {symbols.Intern("Z")};
  specs[1].h = DiscriminatingFunction::UniformHash(4);
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 4, specs);
  ASSERT_TRUE(bundle.ok());
  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 30, 60, 8);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok());
  uint64_t messages = result->cross_tuples + result->self_tuples;
  EXPECT_LE(messages, 2 * result->out_tuples_total);
  EXPECT_GE(messages, result->out_tuples_total);
}

// --- Section 6: both special cases of the R_i scheme ----------------------

TEST(PaperSection6, KeepLocalEqualsScheme18) {
  // "Let h_i(...) = i for every tuple ... the parallel execution does
  //  not require any communication."
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 55, 14);
  TradeoffOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h_prime = DiscriminatingFunction::UniformHash(3);
  for (int i = 0; i < 3; ++i) {
    options.h_i.push_back(DiscriminatingFunction::Constant(i));
  }
  StatusOr<RewriteBundle> bundle = RewriteTradeoff(
      setup->program, setup->info, setup->sirup, 3, options);
  ASSERT_TRUE(bundle.ok());
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cross_tuples, 0u);
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()),
            SequentialAncestor(setup.get(), nullptr));
}

TEST(PaperSection6, SharedHEqualsSection3Scheme) {
  // "Suppose that h_i = h for every i in P ... this program is
  //  identical to the program Q_i presented in section 3": same
  //  answers, same firings, same per-channel traffic.
  auto setup3 = MakeAncestorSetup();
  auto setup6 = MakeAncestorSetup();
  for (auto* s : {setup3.get(), setup6.get()}) {
    GenRandomGraph(&s->symbols, &s->edb, "par", 25, 55, 15);
  }
  RewriteBundle q =
      MakeAncestorBundle(setup3.get(), AncestorScheme::kExample3, 3, 99);
  StatusOr<ParallelResult> rq = RunParallel(q, &setup3->edb);
  ASSERT_TRUE(rq.ok());

  TradeoffOptions options;
  options.v_r = {setup6->symbols.Intern("Z")};
  options.v_e = {setup6->symbols.Intern("X")};
  options.h_prime = DiscriminatingFunction::UniformHash(3, 99);
  for (int i = 0; i < 3; ++i) {
    options.h_i.push_back(DiscriminatingFunction::UniformHash(3, 99));
  }
  StatusOr<RewriteBundle> r = RewriteTradeoff(
      setup6->program, setup6->info, setup6->sirup, 3, options);
  ASSERT_TRUE(r.ok());
  StatusOr<ParallelResult> rr = RunParallel(*r, &setup6->edb);
  ASSERT_TRUE(rr.ok());

  EXPECT_EQ(rr->total_firings, rq->total_firings);
  EXPECT_EQ(rr->channel_matrix, rq->channel_matrix);
  EXPECT_EQ(DumpOutput(*rr, setup6->symbols, setup6->anc()),
            DumpOutput(*rq, setup3->symbols, setup3->anc()));
}

}  // namespace
}  // namespace pdatalog
