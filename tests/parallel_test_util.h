// Helpers shared by the parallel-engine test suites.
#ifndef PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_
#define PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_

#include <string>

#include "core/engine.h"
#include "core/partition.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace pdatalog {
namespace testing_util {

// The three ancestor parallelizations of Section 4.
enum class AncestorScheme {
  kExample1,  // v(r) = v(e) = <Y>: no communication, par shared
  kExample2,  // v(r) = <X,Z>, h = fragmentation lookup: broadcast
  kExample3,  // v(e) = <X>, v(r) = <Z>: point-to-point
};

struct AncestorSetup {
  SymbolTable symbols;
  Program program;
  ProgramInfo info;
  LinearSirup sirup;
  Database edb;

  Symbol anc() const { return symbols.Lookup("anc"); }
};

// Parses the ancestor program; the caller then fills `edb` with a
// generator before building a bundle.
inline std::unique_ptr<AncestorSetup> MakeAncestorSetup() {
  auto setup = std::make_unique<AncestorSetup>();
  setup->program = ParseOrDie(kAncestorProgram, &setup->symbols);
  setup->info = ValidateOrDie(setup->program);
  StatusOr<LinearSirup> sirup =
      ExtractLinearSirup(setup->program, setup->info);
  EXPECT_TRUE(sirup.ok());
  setup->sirup = std::move(*sirup);
  return setup;
}

// Builds the Section 4 scheme bundle. For Example 2 the fragmentation
// function is derived from the current contents of setup->edb["par"].
inline RewriteBundle MakeAncestorBundle(AncestorSetup* setup,
                                        AncestorScheme scheme, int P,
                                        uint64_t seed = 0x5eed) {
  LinearSchemeOptions options;
  SymbolTable& symbols = setup->symbols;
  switch (scheme) {
    case AncestorScheme::kExample1:
      options.v_r = {symbols.Intern("Y")};
      options.v_e = {symbols.Intern("Y")};
      options.h = DiscriminatingFunction::UniformHash(P, seed);
      break;
    case AncestorScheme::kExample2: {
      options.v_r = {symbols.Intern("X"), symbols.Intern("Z")};
      options.v_e = {symbols.Intern("X"), symbols.Intern("Y")};
      Relation& par = setup->edb.GetOrCreate(symbols.Intern("par"), 2);
      options.h = MakeArbitraryFragmentation(par, P, seed);
      break;
    }
    case AncestorScheme::kExample3:
      options.v_r = {symbols.Intern("Z")};
      options.v_e = {symbols.Intern("X")};
      options.h = DiscriminatingFunction::UniformHash(P, seed);
      break;
  }
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, P, options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(*bundle);
}

// Sequential reference run over a copy of the EDB facts in `setup`.
// Returns the sorted anc dump and fills `stats`.
inline std::string SequentialAncestor(AncestorSetup* setup,
                                      EvalStats* stats) {
  Database db;
  const Relation* par = setup->edb.Find(setup->symbols.Lookup("par"));
  if (par != nullptr) {
    db.GetOrCreate(setup->symbols.Lookup("par"), 2).InsertAll(*par);
  }
  EvalStats local;
  Status status = SemiNaiveEvaluate(setup->program, setup->info, &db,
                                    stats ? stats : &local);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return Dump(db, setup->symbols, "anc");
}

inline std::string DumpOutput(const ParallelResult& result,
                              const SymbolTable& symbols, Symbol pred) {
  const Relation* rel = result.output.Find(pred);
  return rel == nullptr ? "" : rel->ToSortedString(symbols);
}

}  // namespace testing_util
}  // namespace pdatalog

#endif  // PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_
