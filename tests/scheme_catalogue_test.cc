// The scheme catalogue (core/schemes.h) pinned to the paper: the
// sequences, function kinds and seeds of Section 4's Examples 1-3, the
// Section 6 trade-off and the Section 7 default, and BuildScheme's
// bundles against the literal instantiations the benchmark builds.
#include "core/schemes.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using Kind = DiscriminatingFunction::Kind;
using testing_util::MakeAncestorSetup;
using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

constexpr uint64_t kSeed = 0x5eed;

// Everything a run reads from a bundle, rendered: the local programs,
// the base-occurrence access decisions, the sending rules and the
// registered functions.
std::string Fingerprint(const RewriteBundle& bundle,
                        const SymbolTable& symbols) {
  std::string out;
  for (const Program& program : bundle.per_processor) out += ToString(program);
  for (const BaseOccurrence& occ : bundle.base_occurrences) {
    out += "occ " + std::to_string(occ.rule_index) + "." +
           std::to_string(occ.body_index) +
           (occ.access == BaseOccurrence::Access::kFragment ? " fragment"
                                                            : " replicated");
    for (int p : occ.positions) out += " " + std::to_string(p);
    out += "\n";
  }
  for (const auto& sends : bundle.sends) {
    for (const SendSpec& spec : sends) {
      out += "send " + SequenceName(spec.vars, symbols) + " f" +
             std::to_string(spec.function) +
             (spec.determined ? " determined\n" : " broadcast\n");
    }
  }
  for (int f = 0; f < bundle.registry->size(); ++f) {
    const DiscriminatingFunction& fn = bundle.registry->function(f);
    out += "f" + std::to_string(f) + " kind " +
           std::to_string(static_cast<int>(fn.kind)) + " seed " +
           std::to_string(fn.seed) + " P " +
           std::to_string(fn.num_processors) + " owner " +
           std::to_string(fn.constant) + "\n";
  }
  return out;
}

BuiltScheme Build(const Program& program, const ProgramInfo& info,
                  const Database& edb, SchemeKind kind, int P = 4) {
  SchemeRequest request;
  request.kind = kind;
  request.processors = P;
  StatusOr<BuiltScheme> built = BuildScheme(program, info, edb, request);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

TEST(SchemeCatalogueTest, AncestorExample1IsTheUniformYScheme) {
  auto setup = MakeAncestorSetup();
  StatusOr<LinearSchemeOptions> o =
      CommunicationFreeScheme(setup->sirup, 4, kSeed);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(SequenceName(o->v_r, setup->symbols), "<Y>");
  EXPECT_EQ(SequenceName(o->v_e, setup->symbols), "<Y>");
  EXPECT_EQ(o->h.kind, Kind::kUniformHash);  // a one-position cycle
  EXPECT_EQ(o->h.seed, kSeed);
  EXPECT_EQ(o->h.num_processors, 4);
}

TEST(SchemeCatalogueTest, LongerCyclesNeedTheSymmetricHash) {
  SymbolTable symbols;
  Program program = ParseOrDie(FindProgram("swap")->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  StatusOr<LinearSchemeOptions> o = CommunicationFreeScheme(*sirup, 4);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->v_r.size(), 2u);
  EXPECT_EQ(o->h.kind, Kind::kSymmetricHash);
}

TEST(SchemeCatalogueTest, AncestorExample2FragmentsPar) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 6);
  StatusOr<LinearSchemeOptions> o =
      FragmentationScheme(setup->sirup, setup->edb, 4, kSeed);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(SequenceName(o->v_r, setup->symbols), "<X,Z>");
  EXPECT_EQ(SequenceName(o->v_e, setup->symbols), "<X,Y>");
  EXPECT_EQ(o->h.kind, Kind::kTableLookup);
  // Without facts there is nothing to fragment.
  Database empty;
  EXPECT_EQ(FragmentationScheme(setup->sirup, empty, 4).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemeCatalogueTest, AncestorExample3HashesZAndFragmentsPar) {
  auto setup = MakeAncestorSetup();
  LinearSchemeOptions o =
      HashScheme(setup->sirup, Example3Vars(setup->sirup), 4, kSeed);
  EXPECT_EQ(SequenceName(o.v_r, setup->symbols), "<Z>");
  EXPECT_EQ(SequenceName(o.v_e, setup->symbols), "<X>");
  EXPECT_EQ(o.h.kind, Kind::kUniformHash);
  EXPECT_EQ(o.h.seed, kSeed);

  BuiltScheme built = Build(setup->program, setup->info, setup->edb,
                            SchemeKind::kExample3);
  ASSERT_EQ(built.bundle.base_occurrences.size(), 2u);
  for (const BaseOccurrence& occ : built.bundle.base_occurrences) {
    EXPECT_EQ(occ.access, BaseOccurrence::Access::kFragment)
        << "rule " << occ.rule_index;
  }
  EXPECT_EQ(built.note,
            "Example 3: hash partitioning, v(r) = <Z>, v(e) = <X>");
  EXPECT_EQ(Build(setup->program, setup->info, setup->edb,
                  SchemeKind::kExample1)
                .note,
            "Example 1: communication-free (Theorem 3), v(r) = <Y>, "
            "v(e) = <Y>");
}

TEST(SchemeCatalogueTest, AncestorTradeoffUsesExample3Sequences) {
  auto setup = MakeAncestorSetup();
  TradeoffOptions o = TradeoffScheme(setup->sirup, 0.25, 3, kSeed);
  EXPECT_EQ(SequenceName(o.v_r, setup->symbols), "<Z>");
  EXPECT_EQ(SequenceName(o.v_e, setup->symbols), "<X>");
  EXPECT_EQ(o.h_prime.kind, Kind::kUniformHash);
  ASSERT_EQ(o.h_i.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(o.h_i[i].kind, Kind::kKeepOrHash);
    EXPECT_EQ(o.h_i[i].constant, i);
    EXPECT_DOUBLE_EQ(o.h_i[i].keep_probability, 0.25);
    EXPECT_EQ(o.h_i[i].seed, kSeed);
  }
}

// The benchmark's oneshot_ex1 / oneshot_ex3 spell their ancestor schemes
// out literally; `pdatalog --scheme=example1|example3` must run exactly
// those bundles.
TEST(SchemeCatalogueTest, ExamplesOneAndThreeMatchTheBenchmarkLiterals) {
  auto setup = MakeAncestorSetup();
  SymbolTable& s = setup->symbols;
  for (int P : {2, 4}) {
    for (SchemeKind kind : {SchemeKind::kExample1, SchemeKind::kExample3}) {
      LinearSchemeOptions literal;
      const bool ex1 = kind == SchemeKind::kExample1;
      literal.v_r = {s.Intern(ex1 ? "Y" : "Z")};
      literal.v_e = {s.Intern(ex1 ? "Y" : "X")};
      literal.h = DiscriminatingFunction::UniformHash(P, kSeed);
      StatusOr<RewriteBundle> expected = RewriteLinearSirup(
          setup->program, setup->info, setup->sirup, P, literal);
      ASSERT_TRUE(expected.ok());
      BuiltScheme built =
          Build(setup->program, setup->info, setup->edb, kind, P);
      EXPECT_EQ(Fingerprint(built.bundle, s), Fingerprint(*expected, s))
          << (ex1 ? "example1" : "example3") << " P=" << P;
    }
  }
}

TEST(SchemeCatalogueTest, SameGenerationExample3KeepsBothJoinVariables) {
  SymbolTable symbols;
  Program program =
      ParseOrDie(FindProgram("same_generation")->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions o = HashScheme(*sirup, Example3Vars(*sirup), 4);
  EXPECT_EQ(SequenceName(o.v_r, symbols), "<U,V>");
  EXPECT_EQ(SequenceName(o.v_e, symbols), "<X,Y>");
  // An acyclic sirup: auto takes Example 3.
  Database edb;
  EXPECT_EQ(Build(program, info, edb, SchemeKind::kAuto).note,
            "auto: " + Build(program, info, edb, SchemeKind::kExample3).note);
}

TEST(SchemeCatalogueTest, AutoPicksTheoremThreeOrGeneral) {
  auto setup = MakeAncestorSetup();
  BuiltScheme ancestor =
      Build(setup->program, setup->info, setup->edb, SchemeKind::kAuto);
  EXPECT_NE(ancestor.note.find("Theorem 3"), std::string::npos);
  EXPECT_EQ(Fingerprint(ancestor.bundle, setup->symbols),
            Fingerprint(Build(setup->program, setup->info, setup->edb,
                              SchemeKind::kExample1)
                            .bundle,
                        setup->symbols));

  SymbolTable symbols;
  Program program =
      ParseOrDie(FindProgram("ancestor_nonlinear")->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database edb;
  EXPECT_NE(Build(program, info, edb, SchemeKind::kAuto)
                .note.find("general scheme"),
            std::string::npos);
  SchemeRequest request;
  request.kind = SchemeKind::kExample3;
  EXPECT_FALSE(BuildScheme(program, info, edb, request).ok());
}

TEST(SchemeCatalogueTest, GeneralDefaultsAndOverrides) {
  SymbolTable symbols;
  Program program =
      ParseOrDie(FindProgram("ancestor_nonlinear")->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<std::vector<GeneralRuleSpec>> specs =
      GeneralScheme(program, info, 4, kSeed);
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 2u);
  // The exit rule keys on its first head variable, the recursive rule
  // on its first derived atom's first variable.
  EXPECT_EQ(SequenceName((*specs)[0].vars, symbols), "<X>");
  EXPECT_EQ(SequenceName((*specs)[1].vars, symbols), "<X>");
  EXPECT_EQ((*specs)[1].h.kind, Kind::kUniformHash);

  specs = GeneralScheme(program, info, 4, kSeed, {{1, "Z"}});
  ASSERT_TRUE(specs.ok());
  EXPECT_EQ(SequenceName((*specs)[1].vars, symbols), "<Z>");
  EXPECT_FALSE(GeneralScheme(program, info, 4, kSeed, {{2, "Z"}}).ok());
  EXPECT_FALSE(GeneralScheme(program, info, 4, kSeed, {{0, "Q"}}).ok());
}

}  // namespace
}  // namespace pdatalog
