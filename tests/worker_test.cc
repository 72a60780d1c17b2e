// Direct unit tests of the Worker: init/step semantics, pattern-matched
// sending (including constants and repeated variables in the recursive
// atom), self-channel accounting, and undetermined-broadcast behaviour.
#include "core/worker.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::GenPointsToFacts;
using testing_util::ParseOrDie;
using testing_util::SequentialAncestor;
using testing_util::ValidateOrDie;
using testing_util::WorkerRig;

TEST(WorkerTest, StepWithoutInputIsNoOp) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  // No Init, no data: stepping does nothing.
  StatusOr<bool> stepped = rig.workers[0]->Step();
  ASSERT_TRUE(stepped.ok());
  EXPECT_FALSE(*stepped);
  EXPECT_EQ(rig.workers[0]->stats().rounds, 0);
}

TEST(WorkerTest, InitFiresExitRulesAndRoutes) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  // Every exit tuple (4 of them) is routed exactly once (Example 3).
  EXPECT_EQ(sent, 4u);
}

TEST(WorkerTest, QuiescenceComputesClosure) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 6);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  size_t total = 0;
  for (auto& w : rig.workers) {
    total += w->OutputRelation(setup->anc()).size();
  }
  EXPECT_EQ(total, 21u);  // 6*7/2, no duplicates across workers here
}

TEST(WorkerTest, ConstantInRecursiveAtomFiltersSends) {
  // t(X, Y) :- t(Y, c), b(X, Y): only tuples whose second column is the
  // constant c can ever fire a processing rule, so only those are sent.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, c), b(X, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Y")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Database edb;
  Value c = symbols.Lookup("c");
  Value n1 = symbols.Intern("n1");
  Value n2 = symbols.Intern("n2");
  Relation& s = edb.GetOrCreate(symbols.Lookup("s"), 2);
  s.Insert(Tuple{n1, c});   // matches the pattern t(Y, c)
  s.Insert(Tuple{n1, n2});  // does not
  s.Insert(Tuple{n2, c});   // matches

  WorkerRig rig = WorkerRig::Create(*bundle, &edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  EXPECT_EQ(sent, 2u);  // only the two pattern-matching tuples travel
}

TEST(WorkerTest, RepeatedVariableInRecursiveAtomFiltersSends) {
  // t(X, Y) :- t(Y, Y), b(X, Y): only diagonal tuples are consumable.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, Y), b(X, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Y")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());

  Database edb;
  Value n1 = symbols.Intern("n1");
  Value n2 = symbols.Intern("n2");
  Relation& s = edb.GetOrCreate(symbols.Lookup("s"), 2);
  s.Insert(Tuple{n1, n1});  // diagonal: consumable
  s.Insert(Tuple{n1, n2});  // not

  WorkerRig rig = WorkerRig::Create(*bundle, &edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  EXPECT_EQ(sent, 1u);
}

TEST(WorkerTest, BroadcastCountsOnUndeterminedSends) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 5);
  // Example 2: v(r) = <X, Z>, X not in anc(Z, Y) => broadcast.
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 3);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  uint64_t broadcasts = 0;
  uint64_t messages = 0;
  uint64_t out = 0;
  for (auto& w : rig.workers) {
    broadcasts += w->stats().broadcasts;
    messages += w->stats().sent_cross + w->stats().sent_self;
    out += w->stats().out_inserted;
  }
  EXPECT_EQ(broadcasts, out);       // every output tuple is broadcast
  EXPECT_EQ(messages, out * 3);     // to all three processors
}

TEST(WorkerTest, ReceivedDuplicatesDoNotRefire) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  // Broadcast delivers each tuple to both workers; in_inserted counts
  // distinct t_in tuples, received counts raw messages.
  for (auto& w : rig.workers) {
    EXPECT_LE(w->stats().in_inserted, w->stats().received);
  }
  Relation pooled(2);
  for (auto& w : rig.workers) {
    pooled.InsertAll(w->OutputRelation(setup->anc()));
  }
  EXPECT_EQ(pooled.size(), 10u);  // 4*5/2
}

TEST(WorkerTest, LocalProgramPrintable) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  const Database& local = rig.workers[0]->local_db();
  // Worker-local relations exist for both decorated predicates.
  Symbol anc = setup->anc();
  EXPECT_NE(local.Find(bundle.out_name.at(anc)), nullptr);
  EXPECT_NE(local.Find(bundle.in_name.at(anc)), nullptr);
}

ParallelOptions RoundRobin() {
  ParallelOptions options;
  options.use_threads = false;
  return options;
}

uint64_t TotalFirings(const ParallelResult& result) {
  uint64_t firings = 0;
  for (const WorkerStats& w : result.workers) firings += w.firings;
  return firings;
}

// The index masks a relation holds, e.g. "2" or "1,3".
std::string IndexMasks(const Relation& rel) {
  std::string masks;
  for (uint32_t mask = 1; mask < (1u << rel.arity()); ++mask) {
    if (rel.GetIndex(mask) == nullptr) continue;
    if (!masks.empty()) masks += ',';
    masks += std::to_string(mask);
  }
  return masks;
}

// Whether `bundle` reads `pred` both as a fragment and replicated.
bool HasMixedAccess(const RewriteBundle& bundle, Symbol pred) {
  bool fragment = false;
  bool replicated = false;
  for (const BaseOccurrence& occ : bundle.base_occurrences) {
    const Rule& rule = bundle.per_processor[0].rules[occ.rule_index];
    if (rule.body[occ.body_index].predicate != pred) continue;
    (occ.access == BaseOccurrence::Access::kFragment ? fragment
                                                     : replicated) = true;
  }
  return fragment && replicated;
}

// Example 1 reads par as this worker's fragment in the exit rule and as
// the shared replicated relation in the recursive rule.
TEST(WorkerTest, MixedAccessExampleOne) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 80, 9);
  EvalStats seq;
  std::string expected = SequentialAncestor(setup.get(), &seq);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 3);
  Symbol par = setup->symbols.Lookup("par");
  ASSERT_TRUE(HasMixedAccess(bundle, par));

  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, RoundRobin());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(TotalFirings(*result), seq.firings);
  // The shared relation carries exactly the indexes the engine built up
  // front; the workers added none.
  EXPECT_EQ(IndexMasks(*setup->edb.Find(par)), "2");
}

// Same generation over a single parent relation: par(X, U) is the
// worker's fragment (U is the rule's discriminating variable) and
// par(Y, V) the shared relation, within one rule.
TEST(WorkerTest, MixedAccessWithinOneRule) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- par(X, U), sg(U, V), par(Y, V).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  auto fill = [&](Database* db) {
    GenTree(&symbols, db, "par", 3, 4);
    SplitMix64 rng(5);
    Relation& flat = db->GetOrCreate(symbols.Intern("flat"), 2);
    for (int i = 0; i < 12; ++i) {
      flat.Insert(
          Tuple{symbols.Intern("n" + std::to_string(rng.NextBelow(13))),
                symbols.Intern("n" + std::to_string(rng.NextBelow(13)))});
    }
  };
  Database seq_db;
  fill(&seq_db);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("X")};
  specs[1].vars = {symbols.Intern("U")};
  for (GeneralRuleSpec& spec : specs) {
    spec.h = DiscriminatingFunction::UniformHash(3);
  }
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  Symbol par = symbols.Lookup("par");
  ASSERT_TRUE(HasMixedAccess(*bundle, par));

  Database edb;
  fill(&edb);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, RoundRobin());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Symbol sg = symbols.Lookup("sg");
  EXPECT_EQ(DumpOutput(*result, symbols, sg),
            seq_db.Find(sg)->ToSortedString(symbols));
  EXPECT_GT(seq_db.Find(sg)->size(), 12u);
  EXPECT_EQ(TotalFirings(*result), seq.firings);
  EXPECT_EQ(IndexMasks(*edb.Find(par)), "2");
}

// ---------------------------------------------------------------------
// Exact per-worker counters under the deterministic round-robin
// schedule. What Init fires, what one Step evaluates and what it sends
// all show up here, so any change to the worker's round structure moves
// these numbers.
// ---------------------------------------------------------------------

// One worker's counters, then its per-round firings (round 0 = Init).
std::string CounterLine(const WorkerStats& s,
                        const std::vector<RoundLog>& logs) {
  std::string line =
      "rounds=" + std::to_string(s.rounds) +
      " firings=" + std::to_string(s.firings) +
      " out=" + std::to_string(s.out_inserted) +
      " in=" + std::to_string(s.in_inserted) +
      " received=" + std::to_string(s.received) +
      " cross=" + std::to_string(s.sent_cross) +
      " self=" + std::to_string(s.sent_self) +
      " broadcasts=" + std::to_string(s.broadcasts) +
      " frames=" + std::to_string(s.frames) +
      " rows=" + std::to_string(s.rows_examined) +
      " fallbacks=" + std::to_string(s.batch_fallbacks) + " |";
  for (const RoundLog& log : logs) line += " " + std::to_string(log.firings);
  return line + "\n";
}

std::string CounterLines(const ParallelResult& result) {
  std::string lines;
  for (size_t i = 0; i < result.workers.size(); ++i) {
    lines += CounterLine(result.workers[i], result.worker_rounds[i]);
  }
  return lines;
}

TEST(WorkerCountersTest, AncestorSchemes) {
  struct Case {
    AncestorScheme scheme;
    int processors;
    const char* expected;
  };
  const Case cases[] = {
      // Example 1's anc is self-routed: each worker derives into its
      // t_in and reaches its local fixpoint inside Init, so there are no
      // processing rounds, receives, sends or frames, and the one round
      // log (Init's) carries every firing.
      {AncestorScheme::kExample1, 2,
       "rounds=0 firings=1178 out=632 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=1810 fallbacks=0 | 1178\n"
       "rounds=0 firings=712 out=389 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=1101 fallbacks=0 | 712\n"},
      {AncestorScheme::kExample1, 4,
       "rounds=0 firings=660 out=359 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=1019 fallbacks=0 | 660\n"
       "rounds=0 firings=234 out=128 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=362 fallbacks=0 | 234\n"
       "rounds=0 firings=518 out=273 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=791 fallbacks=0 | 518\n"
       "rounds=0 firings=478 out=261 in=0 received=0 cross=0 self=0 "
       "broadcasts=0 frames=0 rows=739 fallbacks=0 | 478\n"},
      {AncestorScheme::kExample2, 2,
       "rounds=11 firings=966 out=636 in=1021 received=1383 cross=636 "
       "self=636 broadcasts=636 frames=22 rows=1987 fallbacks=0 | 38 72 152 "
       "243 186 106 83 51 21 12 2 0\n"
       "rounds=10 firings=924 out=747 in=1021 received=1383 cross=747 "
       "self=747 broadcasts=747 frames=20 rows=1945 fallbacks=0 | 42 138 219 "
       "232 129 76 55 19 12 2 0\n"},
      {AncestorScheme::kExample2, 4,
       "rounds=10 firings=301 out=285 in=1021 received=1643 cross=855 "
       "self=285 broadcasts=285 frames=40 rows=1322 fallbacks=0 | 12 27 81 "
       "83 34 19 13 17 12 3 0\n"
       "rounds=9 firings=449 out=429 in=1021 received=1643 cross=1287 "
       "self=429 broadcasts=429 frames=32 rows=1470 fallbacks=0 | 22 58 141 "
       "118 60 26 18 6 0 0\n"
       "rounds=9 firings=665 out=506 in=1021 received=1643 cross=1518 "
       "self=506 broadcasts=506 frames=36 rows=1686 fallbacks=0 | 26 97 205 "
       "139 68 42 46 33 9 0\n"
       "rounds=9 firings=475 out=423 in=1021 received=1643 cross=1269 "
       "self=423 broadcasts=423 frames=36 rows=1496 fallbacks=0 | 20 113 145 "
       "69 32 37 38 18 3 0\n"},
      {AncestorScheme::kExample3, 2,
       "rounds=11 firings=1138 out=895 in=695 received=927 cross=254 "
       "self=641 broadcasts=0 frames=20 rows=1833 fallbacks=0 | 50 90 180 "
       "194 163 126 118 111 70 28 7 1\n"
       "rounds=9 firings=752 out=525 in=326 received=493 cross=286 self=239 "
       "broadcasts=0 frames=16 rows=1078 fallbacks=0 | 30 127 188 223 94 44 "
       "18 20 6 2\n"},
      {AncestorScheme::kExample3, 4,
       "rounds=9 firings=638 out=598 in=372 received=480 cross=372 self=226 "
       "broadcasts=0 frames=31 rows=1010 fallbacks=0 | 18 30 116 126 93 99 "
       "96 51 9 0\n"
       "rounds=7 firings=268 out=260 in=129 received=231 cross=222 self=38 "
       "broadcasts=0 frames=17 rows=397 fallbacks=0 | 10 21 74 128 33 2 0 "
       "0\n"
       "rounds=9 firings=500 out=437 in=323 received=654 cross=257 self=180 "
       "broadcasts=0 frames=26 rows=823 fallbacks=0 | 32 92 149 94 53 38 25 "
       "14 3 0\n"
       "rounds=7 firings=484 out=439 in=197 received=369 cross=352 self=87 "
       "broadcasts=0 frames=21 rows=681 fallbacks=0 | 20 132 185 75 31 13 22 "
       "6\n"},
  };
  for (const Case& c : cases) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 80, 9);
    RewriteBundle bundle =
        MakeAncestorBundle(setup.get(), c.scheme, c.processors);
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, RoundRobin());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(CounterLines(*result), c.expected)
        << "example " << static_cast<int>(c.scheme) + 1 << ", P = "
        << c.processors;
  }
}

// Runs a builtin program under the general scheme with one
// discriminating variable per rule and fragmented bases.
std::string GeneralSchemeCounters(const std::string& name,
                                  const std::vector<std::string>& vars,
                                  void (*fill)(SymbolTable*, Database*)) {
  SymbolTable symbols;
  StatusOr<NamedProgram> named = FindProgram(name);
  EXPECT_TRUE(named.ok());
  Program program = ParseOrDie(named->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (size_t r = 0; r < specs.size(); ++r) {
    specs[r].vars = {symbols.Intern(vars[r])};
    specs[r].h = DiscriminatingFunction::UniformHash(3);
  }
  StatusOr<RewriteBundle> bundle = RewriteGeneral(
      program, info, 3, specs, /*fragment_bases=*/true);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  Database edb;
  fill(&symbols, &edb);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, RoundRobin());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? CounterLines(*result) : "";
}

void FillPointsTo(SymbolTable* symbols, Database* edb) {
  GenPointsToFacts(symbols, edb, 12, 6, 25, 11);
}

void FillSameGeneration(SymbolTable* symbols, Database* edb) {
  GenFlat(symbols, edb, "up", 50, 10, 3);
  SplitMix64 rng(4);
  Relation& flat = edb->GetOrCreate(symbols->Intern("flat"), 2);
  Relation& down = edb->GetOrCreate(symbols->Intern("down"), 2);
  auto node = [&](const char* prefix, uint64_t n) {
    return symbols->Intern(prefix + std::to_string(rng.NextBelow(n)));
  };
  for (int i = 0; i < 20; ++i) {
    Value x = node("p", 10);
    Value y = node("p", 10);
    flat.Insert(Tuple{x, y});
    Value parent = node("p", 10);
    Value child = node("c", 50);
    down.Insert(Tuple{parent, child});
  }
}

// Every rule keys on O, so heap_pt is self-routed: its one reader keys
// on the column its head holds O in. Its rows derive straight into
// heap_pt_in and only pt travels.
TEST(WorkerCountersTest, PointsToGeneralScheme) {
  EXPECT_EQ(
      GeneralSchemeCounters("points_to", {"O", "O", "O", "O"}, FillPointsTo),
      "rounds=3 firings=0 out=0 in=68 received=68 cross=0 self=0 "
      "broadcasts=0 frames=0 rows=1147 fallbacks=9 | 0 0 0 0\n"
      "rounds=3 firings=1115 out=69 in=68 received=68 cross=90 self=45 "
      "broadcasts=90 frames=9 rows=2103 fallbacks=11 | 17 281 679 138\n"
      "rounds=3 firings=560 out=35 in=68 received=68 cross=46 self=23 "
      "broadcasts=46 frames=9 rows=1731 fallbacks=10 | 8 266 257 29\n");
}

TEST(WorkerCountersTest, SameGenerationGeneralScheme) {
  EXPECT_EQ(GeneralSchemeCounters("same_generation", {"X", "U"},
                                  FillSameGeneration),
            "rounds=2 firings=82 out=78 in=80 received=80 cross=38 self=40 "
            "broadcasts=0 frames=4 rows=199 fallbacks=2 | 8 74 0\n"
            "rounds=2 firings=21 out=21 in=38 received=38 cross=12 self=9 "
            "broadcasts=0 frames=4 rows=74 fallbacks=2 | 3 18 0\n"
            "rounds=2 firings=74 out=74 in=55 received=55 cross=49 self=25 "
            "broadcasts=0 frames=4 rows=156 fallbacks=2 | 5 69 0\n");
}

}  // namespace
}  // namespace pdatalog
