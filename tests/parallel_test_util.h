// Helpers shared by the parallel-engine test suites.
#ifndef PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_
#define PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_

#include <initializer_list>
#include <string>

#include "core/engine.h"
#include "core/partition.h"
#include "core/wire.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/hash.h"

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

// Synthetic points-to input: assignments and heap operations over
// `vars` variables and `objs` abstract objects.
inline void GenPointsToFacts(SymbolTable* symbols, Database* db, int vars,
                             int objs, int facts, uint64_t seed) {
  SplitMix64 rng(seed);
  Relation& new_rel = db->GetOrCreate(symbols->Intern("new"), 2);
  Relation& assign = db->GetOrCreate(symbols->Intern("assign"), 2);
  Relation& load = db->GetOrCreate(symbols->Intern("load"), 2);
  Relation& store = db->GetOrCreate(symbols->Intern("store"), 2);
  auto var = [&](uint64_t i) {
    return symbols->Intern("v" + std::to_string(i));
  };
  auto obj = [&](uint64_t i) {
    return symbols->Intern("o" + std::to_string(i));
  };
  for (int i = 0; i < facts; ++i) {
    new_rel.Insert(Tuple{var(rng.NextBelow(vars)), obj(rng.NextBelow(objs))});
    assign.Insert(Tuple{var(rng.NextBelow(vars)), var(rng.NextBelow(vars))});
    load.Insert(Tuple{var(rng.NextBelow(vars)), var(rng.NextBelow(vars))});
    store.Insert(Tuple{var(rng.NextBelow(vars)), var(rng.NextBelow(vars))});
  }
}

// Workers of `bundle` wired to one network and detector, driven by the
// test on its own thread instead of through RunParallel, so their
// local t_out / t_in relations stay inspectable.
struct WorkerRig {
  std::unique_ptr<CommNetwork> network;
  std::unique_ptr<TerminationDetector> detector;
  std::vector<std::unique_ptr<Worker>> workers;

  static WorkerRig Create(const RewriteBundle& bundle, Database* edb) {
    WorkerRig rig;
    rig.network = std::make_unique<CommNetwork>(bundle.num_processors);
    rig.detector =
        std::make_unique<TerminationDetector>(bundle.num_processors);
    StatusOr<PartitionResult> partition = PartitionBases(bundle, *edb);
    EXPECT_TRUE(partition.ok());
    for (int i = 0; i < bundle.num_processors; ++i) {
      StatusOr<std::unique_ptr<Worker>> worker = Worker::Create(
          &bundle, i, edb, std::move(partition->fragments[i]),
          rig.network.get(), rig.detector.get());
      EXPECT_TRUE(worker.ok()) << worker.status().ToString();
      rig.workers.push_back(std::move(*worker));
    }
    // As in RunParallel: shared base relations are indexed up front.
    for (const auto& worker : rig.workers) {
      for (const auto& [pred, mask] : worker->compiled().required_indexes()) {
        if (Relation* rel = edb->Find(pred)) rel->EnsureIndex(mask);
      }
    }
    return rig;
  }

  // Runs init + round-robin steps to quiescence.
  void RunToQuiescence() {
    for (auto& w : workers) ASSERT_TRUE(w->Init().ok());
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& w : workers) {
        StatusOr<bool> stepped = w->Step();
        ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
        if (*stepped) progress = true;
      }
    }
  }
};

// A one-row block of `predicate` holding `row`.
inline TupleBlock RowBlock(Symbol predicate, std::initializer_list<Value> row) {
  TupleBlock block;
  block.predicate = predicate;
  block.arity = static_cast<int>(row.size());
  block.Append(row.begin(), block.arity);
  return block;
}

// The message-passing frame of `block`: its header fields, no values,
// and its encoding in `wire` (what Worker::FlushBlock sends in
// serialized mode).
inline TupleBlock EncodedFrame(const TupleBlock& block) {
  TupleBlock frame;
  frame.predicate = block.predicate;
  frame.arity = block.arity;
  frame.count = block.count;
  EXPECT_TRUE(EncodeBlock(block, &frame.wire).ok());
  return frame;
}

}  // namespace testing_util
}  // namespace pdatalog

#endif  // PDATALOG_TESTS_PARALLEL_TEST_UTIL_H_
