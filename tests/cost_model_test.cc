#include "core/cost_model.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;

RoundLog MakeLog(uint64_t firings, std::vector<uint64_t> sent_to) {
  RoundLog log;
  log.firings = firings;
  log.sent_to = std::move(sent_to);
  return log;
}

TEST(CostModelTest, SingleWorkerIsPureCompute) {
  std::vector<std::vector<RoundLog>> rounds(1);
  rounds[0].push_back(MakeLog(10, {0}));
  rounds[0].push_back(MakeLog(5, {0}));
  CostBreakdown cost = BspCost(rounds, {1.0, 100.0, 0.0});
  EXPECT_DOUBLE_EQ(cost.makespan, 15.0);  // self messages are free
  EXPECT_EQ(cost.supersteps, 2);
}

TEST(CostModelTest, MaxAcrossWorkersPerSuperstep) {
  std::vector<std::vector<RoundLog>> rounds(2);
  rounds[0].push_back(MakeLog(10, {0, 0}));
  rounds[1].push_back(MakeLog(3, {0, 0}));
  rounds[0].push_back(MakeLog(2, {0, 0}));
  rounds[1].push_back(MakeLog(7, {0, 0}));
  CostBreakdown cost = BspCost(rounds, {1.0, 0.0, 0.0});
  // Superstep 0: max(10, 3); superstep 1: max(2, 7).
  EXPECT_DOUBLE_EQ(cost.makespan, 17.0);
}

TEST(CostModelTest, CrossMessagesChargedToReceiver) {
  std::vector<std::vector<RoundLog>> rounds(2);
  // Worker 0 sends 4 messages to worker 1; nobody computes.
  rounds[0].push_back(MakeLog(0, {0, 4}));
  rounds[1].push_back(MakeLog(0, {0, 0}));
  CostBreakdown cost = BspCost(rounds, {1.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(cost.makespan, 8.0);
  EXPECT_DOUBLE_EQ(cost.network, 8.0);
  EXPECT_DOUBLE_EQ(cost.compute, 0.0);
}

// Three workers with uneven logs. BspCells is the one attribution the
// makespan and the profile's timeline both read.
TEST(CostModelTest, BspCellsChargeReceiversAndBspCostTakesTheirMax) {
  std::vector<std::vector<RoundLog>> rounds(3);
  rounds[0] = {MakeLog(8, {0, 2, 0}), MakeLog(0, {0, 0, 0}),
               MakeLog(1, {0, 0, 6}), MakeLog(4, {0, 0, 0})};
  rounds[1] = {MakeLog(2, {1, 0, 0}), MakeLog(5, {0, 0, 3})};
  rounds[2] = {MakeLog(0, {0, 0, 0}), MakeLog(0, {0, 0, 0}),
               MakeLog(2, {0, 0, 0})};
  const CostParams params{1.0, 2.0, 1.0};
  std::vector<std::vector<BspCell>> cells = BspCells(rounds, params);
  ASSERT_EQ(cells.size(), 3u);
  const double compute[3][4] = {{8, 0, 1, 4}, {2, 5, 0, 0}, {0, 0, 2, 0}};
  const double network[3][4] = {{2, 0, 0, 0}, {4, 0, 0, 0}, {0, 6, 12, 0}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(cells[i].size(), 4u);
    for (int k = 0; k < 4; ++k) {
      EXPECT_DOUBLE_EQ(cells[i][k].compute, compute[i][k]) << i << "," << k;
      EXPECT_DOUBLE_EQ(cells[i][k].network, network[i][k]) << i << "," << k;
    }
  }
  CostBreakdown cost = BspCost(rounds, params);
  EXPECT_DOUBLE_EQ(cost.makespan, 10 + 6 + 14 + 4 + 4 * 1.0);
  EXPECT_DOUBLE_EQ(cost.compute, 8 + 5 + 2 + 4);
  EXPECT_DOUBLE_EQ(cost.network, 4 + 6 + 12 + 0);
  EXPECT_EQ(cost.supersteps, 4);
}

TEST(CostModelTest, RoundLatencyPerSuperstep) {
  std::vector<std::vector<RoundLog>> rounds(1);
  rounds[0].push_back(MakeLog(1, {0}));
  rounds[0].push_back(MakeLog(1, {0}));
  rounds[0].push_back(MakeLog(1, {0}));
  CostBreakdown cost = BspCost(rounds, {1.0, 0.0, 10.0});
  EXPECT_DOUBLE_EQ(cost.makespan, 33.0);
}

TEST(CostModelTest, UnevenRoundCountsHandled) {
  std::vector<std::vector<RoundLog>> rounds(2);
  rounds[0].push_back(MakeLog(5, {0, 0}));
  // Worker 1 has no rounds at all.
  CostBreakdown cost = BspCost(rounds, {1.0, 1.0, 0.0});
  EXPECT_DOUBLE_EQ(cost.makespan, 5.0);
  EXPECT_EQ(cost.supersteps, 1);
}

TEST(CostModelTest, EmptyRunCostsNothing) {
  std::vector<std::vector<RoundLog>> rounds(3);
  CostBreakdown cost = BspCost(rounds, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(cost.makespan, 0.0);
  EXPECT_EQ(cost.supersteps, 0);
}

TEST(CostModelTest, RoundLogsAccountForAllWork) {
  // The engine's per-round logs must sum to the aggregate statistics.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 90, 3);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  ParallelOptions options;
  options.use_threads = false;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok());

  for (size_t i = 0; i < result->workers.size(); ++i) {
    uint64_t firings = 0;
    uint64_t sent = 0;
    for (const RoundLog& log : result->worker_rounds[i]) {
      firings += log.firings;
      for (uint64_t n : log.sent_to) sent += n;
    }
    EXPECT_EQ(firings, result->workers[i].firings) << "worker " << i;
    EXPECT_EQ(sent, result->workers[i].sent_cross +
                        result->workers[i].sent_self)
        << "worker " << i;
  }
}

TEST(CostModelTest, ZeroNetCostMatchesWorkPartition) {
  // With free communication, the BSP makespan across N workers is at
  // least total/N and at most the sequential total.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 90, 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  ParallelOptions options;
  options.use_threads = false;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok());
  CostBreakdown cost = BspCost(result->worker_rounds, {1.0, 0.0, 0.0});
  double total = static_cast<double>(result->total_firings);
  EXPECT_GE(cost.makespan, total / 4);
  EXPECT_LE(cost.makespan, total);
}

TEST(CostModelTest, CommunicationFreeSchemeInsensitiveToNetCost) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 90, 5);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 4);
  ParallelOptions options;
  options.use_threads = false;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok());
  double cheap = BspCost(result->worker_rounds, {1.0, 0.0, 0.0}).makespan;
  double costly =
      BspCost(result->worker_rounds, {1.0, 100.0, 0.0}).makespan;
  EXPECT_DOUBLE_EQ(cheap, costly);  // zero cross messages
}

}  // namespace
}  // namespace pdatalog
