#include "core/advisor.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::MakeAncestorSetup;

TEST(AdvisorTest, AncestorEnumeratesAllFamilies) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 5);
  AdvisorOptions options;
  options.cost = {1.0, 1.0, 0.0};
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::vector<std::string> names;
  for (const SchemeCandidate& c : report->candidates) names.push_back(c.name);
  auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("theorem3<Y>"));
  EXPECT_TRUE(has("hash<Z>"));
  // theorem3<Y> hashes <Y>/<Y> uniformly, so hash<Y> would be the same
  // bundle profiled twice.
  EXPECT_FALSE(has("hash<Y>"));
  EXPECT_TRUE(has("hash<Z,Y>"));
  EXPECT_TRUE(has("fragmented"));
  EXPECT_TRUE(has("tradeoff(1.00)"));
}

TEST(AdvisorTest, ExpensiveCommunicationPrefersCommFree) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 60, 5);
  AdvisorOptions options;
  options.cost = {1.0, 1000.0, 0.0};  // messages are ruinous
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->best().communication_free)
      << "picked " << report->best().name;
}

TEST(AdvisorTest, RankedByMakespan) {
  auto setup = MakeAncestorSetup();
  GenTree(&setup->symbols, &setup->edb, "par", 2, 6);
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, {});
  ASSERT_TRUE(report.ok());
  for (size_t i = 1; i < report->candidates.size(); ++i) {
    EXPECT_LE(report->candidates[i - 1].makespan,
              report->candidates[i].makespan);
  }
}

TEST(AdvisorTest, PropertiesConsistent) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 9);
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, {});
  ASSERT_TRUE(report.ok());
  for (const SchemeCandidate& c : report->candidates) {
    if (c.communication_free) {
      EXPECT_EQ(c.cross_messages, 0u) << c.name;
    }
    if (c.cross_messages == 0) {
      EXPECT_TRUE(c.communication_free) << c.name;
    }
    EXPECT_GE(c.load_imbalance, 1.0) << c.name;
  }
  // The Section 3 candidates are flagged non-redundant; tradeoff(1.0)
  // is not.
  for (const SchemeCandidate& c : report->candidates) {
    if (c.name.rfind("hash<", 0) == 0 || c.name.rfind("theorem3", 0) == 0) {
      EXPECT_TRUE(c.non_redundant) << c.name;
    }
    if (c.name.rfind("tradeoff", 0) == 0) {
      EXPECT_FALSE(c.non_redundant) << c.name;
    }
  }
}

TEST(AdvisorTest, AcyclicSirupHasNoTheoremThreeCandidate) {
  SymbolTable symbols;
  Program program = testing_util::ParseOrDie(
      "p(U, V, W) :- s(U, V, W).\n"
      "p(U, V, W) :- p(V, W, Z), q(U, Z).\n",
      &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());

  Database edb;
  SplitMix64 rng(4);
  Relation& s = edb.GetOrCreate(symbols.Intern("s"), 3);
  Relation& q = edb.GetOrCreate(symbols.Intern("q"), 2);
  auto node = [&](uint64_t i) {
    return symbols.Intern("n" + std::to_string(i));
  };
  for (int i = 0; i < 30; ++i) {
    s.Insert(Tuple{node(rng.NextBelow(8)), node(rng.NextBelow(8)),
                   node(rng.NextBelow(8))});
    q.Insert(Tuple{node(rng.NextBelow(8)), node(rng.NextBelow(8))});
  }

  StatusOr<AdvisorReport> report =
      AdviseScheme(program, info, *sirup, &edb, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const SchemeCandidate& c : report->candidates) {
    EXPECT_EQ(c.name.rfind("theorem3", 0), std::string::npos) << c.name;
  }
  EXPECT_FALSE(report->candidates.empty());
}

TEST(AdvisorTest, ReportRendersTable) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 10);
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, {});
  ASSERT_TRUE(report.ok());
  std::string table = report->ToString();
  EXPECT_NE(table.find("makespan"), std::string::npos);
  EXPECT_NE(table.find("theorem3"), std::string::npos);
}

TEST(AdvisorTest, EmptyDatabaseStillAdvises) {
  auto setup = MakeAncestorSetup();
  AdvisorOptions options;
  options.include_arbitrary_fragmentation = true;  // skipped: no facts
  StatusOr<AdvisorReport> report = AdviseScheme(
      setup->program, setup->info, setup->sirup, &setup->edb, options);
  ASSERT_TRUE(report.ok());
  for (const SchemeCandidate& c : report->candidates) {
    EXPECT_EQ(c.name, c.name);  // smoke: candidates exist and profiled
    EXPECT_EQ(c.firings, 0u);
  }
}

}  // namespace
}  // namespace pdatalog
