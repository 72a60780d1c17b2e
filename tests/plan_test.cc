#include "eval/plan.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;

// Minimal evaluator mapping every sequence to (sum of values) % mod.
class ModEvaluator : public ConstraintEvaluator {
 public:
  explicit ModEvaluator(int mod) : mod_(mod) {}
  int Evaluate(int, const Value* values, int n) const override {
    uint64_t sum = 0;
    for (int i = 0; i < n; ++i) sum += values[i];
    return static_cast<int>(sum % mod_);
  }

 private:
  int mod_;
};

std::vector<Tuple> RunJoin(const CompiledRule& compiled,
                       const std::vector<AtomInput>& inputs,
                       const ConstraintEvaluator* eval = nullptr,
                       ExecStats* stats_out = nullptr) {
  std::vector<Tuple> out;
  ExecStats stats;
  JoinExecutor::Execute(compiled, inputs, eval,
                        [&](const Tuple& t) { out.push_back(t); }, &stats);
  if (stats_out) *stats_out = stats;
  return out;
}

TEST(PlanTest, SingleAtomScan) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, Y) :- q(Y, X).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());

  Relation q(2);
  q.Insert(Tuple{1, 2});
  q.Insert(Tuple{3, 4});
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 0, q.size()}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Tuple{2, 1}));  // head swaps columns
  EXPECT_EQ(out[1], (Tuple{4, 3}));
}

TEST(PlanTest, TwoAtomJoinUsesIndex) {
  SymbolTable symbols;
  Program program = ParseOrDie("r(X, Z) :- a(X, Y), b(Y, Z).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  // Second step should probe b on its first column.
  ASSERT_EQ(compiled->required_indexes().size(), 1u);
  EXPECT_EQ(compiled->required_indexes()[0].second, 0b01u);

  Relation a(2), b(2);
  a.Insert(Tuple{1, 10});
  a.Insert(Tuple{2, 20});
  b.Insert(Tuple{10, 100});
  b.Insert(Tuple{10, 101});
  b.Insert(Tuple{30, 300});
  b.EnsureIndex(0b01);

  std::vector<Tuple> out =
      RunJoin(*compiled, {{&a, 0, a.size()}, {&b, 0, b.size()}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Tuple{1, 100}));
  EXPECT_EQ(out[1], (Tuple{1, 101}));
}

TEST(PlanTest, ConstantInBodyFilters) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X, c).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());

  Value c = symbols.Lookup("c");
  Value d = symbols.Intern("d");
  Relation q(2);
  q.Insert(Tuple{1, c});
  q.Insert(Tuple{2, d});
  q.EnsureIndex(0b10);
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 0, q.size()}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Tuple{1}));
}

TEST(PlanTest, ConstantInHead) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, tag) :- q(X).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation q(1);
  q.Insert(Tuple{7});
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 0, q.size()}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1], symbols.Lookup("tag"));
}

TEST(PlanTest, RepeatedVariableWithinAtom) {
  SymbolTable symbols;
  Program program = ParseOrDie("diag(X) :- q(X, X).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  // The repeat is checked post-fetch, not via the index.
  EXPECT_TRUE(compiled->required_indexes().empty());

  Relation q(2);
  q.Insert(Tuple{1, 1});
  q.Insert(Tuple{1, 2});
  q.Insert(Tuple{3, 3});
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 0, q.size()}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Tuple{1}));
  EXPECT_EQ(out[1], (Tuple{3}));
}

TEST(PlanTest, RepeatedVariableAcrossAtoms) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X), r(X).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation q(1), r(1);
  q.Insert(Tuple{1});
  q.Insert(Tuple{2});
  r.Insert(Tuple{2});
  r.Insert(Tuple{3});
  r.EnsureIndex(0b01);
  std::vector<Tuple> out =
      RunJoin(*compiled, {{&q, 0, q.size()}, {&r, 0, r.size()}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Tuple{2}));
}

TEST(PlanTest, RowRangesRestrictScan) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation q(1);
  for (Value i = 0; i < 10; ++i) q.Insert(Tuple{i});
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 3, 6}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Tuple{3}));
  EXPECT_EQ(out[2], (Tuple{5}));
}

TEST(PlanTest, RowRangesRestrictIndexProbes) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, Z) :- a(X, Y), b(Y, Z).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation a(2), b(2);
  a.Insert(Tuple{1, 5});
  b.Insert(Tuple{5, 50});  // row 0
  b.Insert(Tuple{5, 51});  // row 1
  b.Insert(Tuple{5, 52});  // row 2
  b.EnsureIndex(0b01);
  // Only rows [1, 2) of b are visible.
  std::vector<Tuple> out = RunJoin(*compiled, {{&a, 0, a.size()}, {&b, 1, 2}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Tuple{1, 51}));
}

TEST(PlanTest, PreferredFirstControlsJoinOrder) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, Z) :- a(X, Y), b(Y, Z).\n", &symbols);
  StatusOr<CompiledRule> delta_second =
      CompiledRule::Compile(program.rules[0], /*preferred_first=*/1);
  ASSERT_TRUE(delta_second.ok());
  EXPECT_EQ(delta_second->steps()[0].body_index, 1);
  // Now atom a is probed on column 1 (Y bound by b).
  ASSERT_EQ(delta_second->required_indexes().size(), 1u);
  EXPECT_EQ(delta_second->required_indexes()[0].second, 0b10u);
}

TEST(PlanTest, HashConstraintFilters) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X).\n", &symbols);
  Rule rule = program.rules[0];
  HashConstraint c;
  c.function = 0;
  c.vars = {symbols.Lookup("X")};
  c.target = 0;
  rule.constraints.push_back(c);

  StatusOr<CompiledRule> compiled = CompiledRule::Compile(rule);
  ASSERT_TRUE(compiled.ok());
  Relation q(1);
  for (Value i = 0; i < 10; ++i) q.Insert(Tuple{i});
  ModEvaluator eval(2);  // keeps even values only
  std::vector<Tuple> out = RunJoin(*compiled, {{&q, 0, q.size()}}, &eval);
  ASSERT_EQ(out.size(), 5u);
  for (const Tuple& t : out) EXPECT_EQ(t[0] % 2, 0u);
}

TEST(PlanTest, ConstraintCheckedAsEarlyAsPossible) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, Y) :- q(X), r(Y).\n", &symbols);
  Rule rule = program.rules[0];
  HashConstraint c;
  c.function = 0;
  c.vars = {symbols.Lookup("X")};
  c.target = 0;
  rule.constraints.push_back(c);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(rule);
  ASSERT_TRUE(compiled.ok());
  // X is bound by the first step, so the constraint is attached there.
  ASSERT_FALSE(compiled->steps().empty());
  EXPECT_FALSE(compiled->steps()[0].constraints_ready.empty());
}

TEST(PlanTest, FiringsCountedPerSubstitution) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- a(X, Y).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation a(2);
  a.Insert(Tuple{1, 10});
  a.Insert(Tuple{1, 11});  // same head tuple, distinct substitution
  ExecStats stats;
  std::vector<Tuple> out = RunJoin(*compiled, {{&a, 0, a.size()}}, nullptr,
                               &stats);
  EXPECT_EQ(out.size(), 2u);  // sink sees both firings
  EXPECT_EQ(stats.firings, 2u);
}

TEST(PlanTest, UnboundConstraintVarRejectedAtCompile) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X).\n", &symbols);
  Rule rule = program.rules[0];
  HashConstraint c;
  c.function = 0;
  c.vars = {symbols.Intern("NOPE")};
  c.target = 0;
  rule.constraints.push_back(c);
  EXPECT_FALSE(CompiledRule::Compile(rule).ok());
}

TEST(PlanTest, EmptyBodyFiresOnce) {
  SymbolTable symbols;
  Rule rule;
  rule.head = MakeAtom(symbols, "unit", {"a"});
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(rule);
  ASSERT_TRUE(compiled.ok());
  std::vector<Tuple> out = RunJoin(*compiled, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Tuple{symbols.Lookup("a")});
}

TEST(PlanTest, CartesianProductWithoutSharedVars) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X, Y) :- q(X), r(Y).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  Relation q(1), r(1);
  q.Insert(Tuple{1});
  q.Insert(Tuple{2});
  r.Insert(Tuple{8});
  r.Insert(Tuple{9});
  std::vector<Tuple> out =
      RunJoin(*compiled, {{&q, 0, q.size()}, {&r, 0, r.size()}});
  EXPECT_EQ(out.size(), 4u);
}

// The two recursive rules the paper's workloads spend their time in —
// ancestor's and points-to's — have the canonical semi-naive shape
// (scan the delta, probe the base's index), so a fixpoint of either
// must run every recursive round through the batch kernel, never the
// scalar fallback.
TEST(PlanTest, BatchKernelRunsRecursiveRules) {
  constexpr Value kNodes = 64;
  struct Case {
    const char* rule;
    bool ancestor;  // base is par(v, v+1); else assign(v+1, v)
    size_t fixpoint;
  };
  for (const Case& c :
       {Case{"anc(X, Y) :- par(X, Z), anc(Z, Y).\n", true,
             kNodes * (kNodes - 1) / 2},
        Case{"pt(V, O) :- assign(V, W), pt(W, O).\n", false, kNodes}}) {
    SymbolTable symbols;
    Program program = ParseOrDie(c.rule, &symbols);
    // Delta first, as the evaluators compile it.
    StatusOr<CompiledRule> compiled =
        CompiledRule::Compile(program.rules[0], /*preferred_first=*/1);
    ASSERT_TRUE(compiled.ok());

    Relation base(2), head(2);
    for (Value v = 0; v + 1 < kNodes; ++v) {
      base.Insert(c.ancestor ? Tuple{v, v + 1} : Tuple{v + 1, v});
      if (c.ancestor) head.Insert(Tuple{v, v + 1});
    }
    if (!c.ancestor) head.Insert(Tuple{0, 1000});
    for (const auto& [pred, mask] : compiled->required_indexes()) {
      (void)pred;
      base.EnsureIndex(mask);
    }

    ExecStats stats;
    size_t old_end = 0;
    while (old_end < head.size()) {
      const size_t frontier = head.size();
      std::vector<Tuple> derived;
      JoinExecutor::Execute(
          *compiled, {{&base, 0, base.size()}, {&head, old_end, frontier}},
          nullptr, [&](const Tuple& t) { derived.push_back(t); }, &stats);
      for (const Tuple& t : derived) head.Insert(t);
      old_end = frontier;
    }
    EXPECT_EQ(head.size(), c.fixpoint) << c.rule;
    EXPECT_GT(stats.batch_probes, 0u) << c.rule;
    EXPECT_EQ(stats.batch_fallbacks, 0u) << c.rule;
  }
}

TEST(PlanTest, DebugStringShowsAccessPaths) {
  SymbolTable symbols;
  Program program = ParseOrDie("r(X, Z) :- a(X, Y), b(Y, Z).\n", &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());
  std::string plan = compiled->DebugString(symbols);
  EXPECT_NE(plan.find("1. scan a(X, Y)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("2. probe b(Y, Z) on (Y)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("emit r(X, Z)"), std::string::npos) << plan;
}

TEST(PlanTest, DebugStringShowsConstraintChecks) {
  SymbolTable symbols;
  Program program = ParseOrDie("p(X) :- q(X).\n", &symbols);
  Rule rule = program.rules[0];
  HashConstraint c;
  c.function = 0;
  c.label = symbols.Intern("h");
  c.vars = {symbols.Lookup("X")};
  c.target = 2;
  rule.constraints.push_back(c);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(rule);
  ASSERT_TRUE(compiled.ok());
  std::string plan = compiled->DebugString(symbols);
  EXPECT_NE(plan.find("[check h(X) = 2]"), std::string::npos) << plan;
}

}  // namespace
}  // namespace pdatalog
