// Skew-adaptive repartitioning (core/rebalance.h): kRemapped overlay
// semantics, the satellite regressions of
// PR 7 (PartitionBases buffer guard, kLinear remap miss), and — the
// load-bearing property — differential fixpoint tests: rebalancing on
// must produce a bit-identical fixpoint to rebalancing off, under both
// schedulers and under channel faults with retransmission.
#include "core/rebalance.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/cost_model.h"
#include "core/engine.h"
#include "core/partition.h"
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorSetup;
using testing_util::ParseOrDie;
using testing_util::SequentialAncestor;
using testing_util::ValidateOrDie;

// Aggressive knobs that force decisions on tiny test workloads.
RebalanceOptions EagerRebalance() {
  RebalanceOptions o;
  o.skew_threshold = 1.0;  // any imbalance triggers
  o.min_bucket_tuples = 1;
  o.cooldown_windows = 2;
  return o;
}

// ---------------------------------------------------------------------
// kRemapped overlay semantics
// ---------------------------------------------------------------------

TEST(RemappedFunctionTest, UnmovedBucketsMatchTheBaseHash) {
  DiscriminatingFunction base = DiscriminatingFunction::UniformHash(4, 42);
  DiscriminatingFunction overlay =
      DiscriminatingFunction::Remapped(base, 128, /*local_owner=*/1);
  for (Value v = 0; v < 200; ++v) {
    Value vals[2] = {v, v * 3 + 1};
    EXPECT_EQ(overlay.Evaluate(vals, 2), base.Evaluate(vals, 2));
  }
}

TEST(RemappedFunctionTest, OverridesRedirectAndKeepLocalUsesOwner) {
  DiscriminatingFunction base = DiscriminatingFunction::SymmetricHash(4, 7);
  DiscriminatingFunction overlay =
      DiscriminatingFunction::Remapped(base, 64, /*local_owner=*/3);
  Value v = 11;
  uint32_t bucket = overlay.BucketOf(&v, 1);

  overlay.bucket_overrides[bucket] = 2;
  EXPECT_EQ(overlay.Evaluate(&v, 1), 2);
  overlay.bucket_overrides[bucket] = DiscriminatingFunction::kKeepLocalDest;
  EXPECT_EQ(overlay.Evaluate(&v, 1), 3);
}

// ---------------------------------------------------------------------
// Satellite regressions
// ---------------------------------------------------------------------

TEST(SatelliteRegressionTest, LinearRemapMissReturnsZeroNotUb) {
  DiscriminatingFunction fn = DiscriminatingFunction::Linear({1, 1});
  // A remap that does not cover every achievable raw value: values that
  // miss must map to processor 0 instead of dereferencing remap.end().
  fn.remap = {{0, 0}};
  Value vals[2] = {1, 2};
  int result = fn.Evaluate(vals, 2);
  EXPECT_GE(result, 0);
  EXPECT_LE(result, 0);
}

TEST(SatelliteRegressionTest, ZeroProcessorHashKindsReturnZero) {
  DiscriminatingFunction uniform = DiscriminatingFunction::UniformHash(0);
  DiscriminatingFunction symmetric =
      DiscriminatingFunction::SymmetricHash(0);
  Value v = 99;
  EXPECT_EQ(uniform.Evaluate(&v, 1), 0);
  EXPECT_EQ(symmetric.Evaluate(&v, 1), 0);
}

TEST(SatelliteRegressionTest, PartitionBasesRejectsOversizedSequence) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Z")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());

  Database edb;
  GenChain(&symbols, &edb, "par", 5);
  // Grow the fragmented occurrences' discriminating sequences past the
  // 32-value gather buffer; PartitionBases must refuse, not overflow.
  int fragmented = 0;
  for (BaseOccurrence& occ : bundle->base_occurrences) {
    if (occ.access != BaseOccurrence::Access::kFragment) continue;
    occ.positions.assign(33, 0);
    ++fragmented;
  }
  ASSERT_GT(fragmented, 0);
  StatusOr<PartitionResult> result = PartitionBases(*bundle, edb);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("at most"), std::string::npos)
      << result.status().ToString();
}

// ---------------------------------------------------------------------
// Cost-model hook
// ---------------------------------------------------------------------

TEST(PreferReplicationTest, SingleSenderForwardsThereIsNothingToSpread) {
  EXPECT_FALSE(PreferReplication(100, 1000, 1, 1.0, 1.0));
  EXPECT_FALSE(PreferReplication(100, 10, 1, 1.0, 100.0));
  EXPECT_FALSE(PreferReplication(0, 1000, 3, 1.0, 100.0));
}

TEST(PreferReplicationTest, BucketAboveFairShareReplicates) {
  // 100 tuples against a fair share of 60: no worker can absorb it, so
  // forwarding would only relocate the straggler.
  EXPECT_TRUE(PreferReplication(100, 60, 3, 1.0, 1.0));
  EXPECT_FALSE(PreferReplication(50, 60, 3, 1.0, 1.0));
}

TEST(PreferReplicationTest, ManySendersForwardUnlessNetworkIsCostly) {
  // net == cpu, 3 senders, bucket fits: forwarding wins.
  EXPECT_FALSE(PreferReplication(100, 1000, 3, 1.0, 1.0));
  // Network 5x the firing cost beats re-firing on 3 senders.
  EXPECT_TRUE(PreferReplication(100, 1000, 3, 1.0, 5.0));
}

// ---------------------------------------------------------------------
// Engine preconditions
// ---------------------------------------------------------------------

TEST(RebalanceEngineTest, RejectsFragmentedBases) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 10);
  // Default Example 3 bundle fragments par; rebalancing must refuse.
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  ParallelOptions options;
  options.use_threads = false;
  options.rebalance = EagerRebalance();
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("replicated base"),
            std::string::npos)
      << result.status().ToString();
}

TEST(RebalanceEngineTest, RejectsThresholdBelowOne) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 10);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  ParallelOptions options;
  options.use_threads = false;
  options.rebalance.skew_threshold = 0.5;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_FALSE(result.ok());
}

// ---------------------------------------------------------------------
// Differential fixpoint tests
// ---------------------------------------------------------------------

// Example-3-style ancestor bundle with replicated bases (the rebalancer
// precondition): hash on the recursive join variable Z.
RewriteBundle MakeRebalancableAncestorBundle(
    testing_util::AncestorSetup* setup, int P, uint64_t seed = 0x5eed) {
  LinearSchemeOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(P, seed);
  options.fragment_bases = false;
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, P, options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(*bundle);
}

class RebalanceDifferentialTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(RoundRobinAndThreads, RebalanceDifferentialTest,
                         ::testing::Values(false, true));

TEST_P(RebalanceDifferentialTest, AncestorFixpointIdenticalOnAndOff) {
  auto setup = MakeAncestorSetup();
  GenZipfGraph(&setup->symbols, &setup->edb, "par", 120, 360, 1.4, 7);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  RewriteBundle bundle = MakeRebalancableAncestorBundle(setup.get(), 4);
  ParallelOptions off;
  off.use_threads = GetParam();
  StatusOr<ParallelResult> base = RunParallel(bundle, &setup->edb, off);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(DumpOutput(*base, setup->symbols, setup->anc()), expected);

  ParallelOptions on = off;
  on.rebalance = EagerRebalance();
  StatusOr<ParallelResult> adapted = RunParallel(bundle, &setup->edb, on);
  ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
  EXPECT_EQ(DumpOutput(*adapted, setup->symbols, setup->anc()), expected);
}

TEST_P(RebalanceDifferentialTest, AncestorFixpointExactUnderFaults) {
  auto setup = MakeAncestorSetup();
  GenZipfGraph(&setup->symbols, &setup->edb, "par", 80, 240, 1.4, 13);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  RewriteBundle bundle = MakeRebalancableAncestorBundle(setup.get(), 4);
  ParallelOptions options;
  options.use_threads = GetParam();
  options.serialize_messages = true;
  options.retransmit = true;
  options.faults.drop = 0.15;
  options.faults.duplicate = 0.1;
  options.faults.reorder = 0.1;
  options.rebalance = EagerRebalance();
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
}

TEST_P(RebalanceDifferentialTest, PointsToFixpointIdenticalOnAndOff) {
  SymbolTable symbols;
  StatusOr<NamedProgram> named = FindProgram("points_to");
  ASSERT_TRUE(named.ok());
  Program program = ParseOrDie(named->source, &symbols);
  ProgramInfo info = ValidateOrDie(program);

  auto gen_facts = [&symbols](Database* db) {
    SplitMix64 rng(21);
    Relation& new_rel = db->GetOrCreate(symbols.Intern("new"), 2);
    Relation& assign = db->GetOrCreate(symbols.Intern("assign"), 2);
    Relation& load = db->GetOrCreate(symbols.Intern("load"), 2);
    Relation& store = db->GetOrCreate(symbols.Intern("store"), 2);
    auto var = [&symbols](uint64_t i) {
      return symbols.Intern("v" + std::to_string(i));
    };
    auto obj = [&symbols](uint64_t i) {
      return symbols.Intern("o" + std::to_string(i));
    };
    for (int i = 0; i < 30; ++i) {
      // Zipf-ish: half of everything lands on object/variable 0.
      uint64_t hot = rng.NextBelow(2);
      new_rel.Insert(
          Tuple{var(rng.NextBelow(14)), obj(hot ? 0 : rng.NextBelow(6))});
      assign.Insert(
          Tuple{var(rng.NextBelow(14)), var(hot ? 0 : rng.NextBelow(14))});
      load.Insert(Tuple{var(rng.NextBelow(14)), var(rng.NextBelow(14))});
      store.Insert(Tuple{var(rng.NextBelow(14)), var(rng.NextBelow(14))});
    }
  };

  Database seq_db;
  gen_facts(&seq_db);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());
  std::string expected_pt =
      seq_db.Find(symbols.Lookup("pt"))->ToSortedString(symbols);

  Symbol o = symbols.Intern("O");
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (GeneralRuleSpec& spec : specs) {
    spec.vars = {o};
    spec.h = DiscriminatingFunction::UniformHash(3);
  }
  StatusOr<RewriteBundle> bundle = RewriteGeneral(
      program, info, 3, specs, /*fragment_bases=*/false);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  for (bool rebalance_on : {false, true}) {
    Database edb;
    gen_facts(&edb);
    ParallelOptions options;
    options.use_threads = GetParam();
    if (rebalance_on) options.rebalance = EagerRebalance();
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(
        result->output.Find(symbols.Lookup("pt"))->ToSortedString(symbols),
        expected_pt)
        << "rebalance " << (rebalance_on ? "on" : "off");
  }
}

// ---------------------------------------------------------------------
// The rebalancer actually acts on a skewed workload
// ---------------------------------------------------------------------

double FiringsSkew(const ParallelResult& result) {
  uint64_t max = 0;
  uint64_t total = 0;
  for (const WorkerStats& w : result.workers) {
    max = std::max(max, w.firings);
    total += w.firings;
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(result.workers.size());
  return static_cast<double>(max) / mean;
}

TEST(RebalanceZipfTest, MovesBucketsAndReducesFiringsSkew) {
  auto setup = MakeAncestorSetup();
  GenZipfGraph(&setup->symbols, &setup->edb, "par", 300, 900, 1.6, 3);
  std::string expected = SequentialAncestor(setup.get(), nullptr);

  RewriteBundle bundle = MakeRebalancableAncestorBundle(setup.get(), 4);
  ParallelOptions off;
  off.use_threads = false;  // deterministic round-robin schedule
  StatusOr<ParallelResult> before = RunParallel(bundle, &setup->edb, off);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  ParallelOptions on = off;
  on.rebalance = EagerRebalance();
  StatusOr<ParallelResult> after = RunParallel(bundle, &setup->edb, on);
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  // Identical fixpoint...
  EXPECT_EQ(DumpOutput(*before, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(DumpOutput(*after, setup->symbols, setup->anc()), expected);

  // ...but the coordinator acted: decisions were published, logged, and
  // the firings concentration dropped.
  uint64_t acted = after->metrics.counter("rebalance.moves") +
                   after->metrics.counter("rebalance.replications");
  EXPECT_GT(acted, 0u);
  EXPECT_EQ(after->metrics.counter("rebalance.rounds"), acted);
  EXPECT_EQ(after->rebalance_log.size(), acted);
  EXPECT_LT(FiringsSkew(*after), FiringsSkew(*before));

  // The trigger reads counted work, never a clock, so the same schedule
  // makes the same decisions.
  StatusOr<ParallelResult> again = RunParallel(bundle, &setup->edb, on);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->rebalance_log.size(), after->rebalance_log.size());
  for (size_t i = 0; i < after->rebalance_log.size(); ++i) {
    const RebalanceLogEntry& a = after->rebalance_log[i];
    const RebalanceLogEntry& b = again->rebalance_log[i];
    EXPECT_EQ(std::tie(a.window, a.bucket, a.from, a.to, a.tuples),
              std::tie(b.window, b.bucket, b.from, b.to, b.tuples))
        << "decision " << i;
  }
  for (size_t w = 0; w < after->workers.size(); ++w) {
    EXPECT_EQ(again->workers[w].firings, after->workers[w].firings);
  }
}

}  // namespace
}  // namespace pdatalog
