#include "core/report.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;

ParallelResult RunAncestor(int P) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 8);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

TEST(ReportTest, TotalsLine) {
  ParallelResult result = RunAncestor(3);
  ReportOptions options;
  options.per_worker = false;
  options.channel_matrix = false;
  std::string report = RenderReport(result, options);
  EXPECT_NE(report.find("totals:"), std::string::npos);
  EXPECT_NE(report.find("36 output tuples"), std::string::npos);  // 8*9/2
  EXPECT_NE(report.find("bytes"), std::string::npos);
}

TEST(ReportTest, PerWorkerTableHasOneRowPerProcessor) {
  ParallelResult result = RunAncestor(4);
  ReportOptions options;
  options.totals = false;
  std::string report = RenderReport(result, options);
  // Header + separator + 4 rows.
  EXPECT_EQ(std::count(report.begin(), report.end(), '\n'), 6);
  EXPECT_NE(report.find("rows examined"), std::string::npos);
}

TEST(ReportTest, PerWorkerRatiosPresent) {
  ParallelResult result = RunAncestor(3);
  ReportOptions options;
  options.totals = false;
  std::string report = RenderReport(result, options);
  EXPECT_NE(report.find("tup/frame"), std::string::npos);
  EXPECT_NE(report.find("rows/round"), std::string::npos);
}

TEST(ReportTest, RatioCellsAreZeroSafe) {
  // A hand-built result with every denominator at zero: no frames, no
  // rounds, no cross frames. Every ratio cell must render as 0.0, never
  // inf or nan.
  ParallelResult result;
  WorkerStats idle;
  idle.rounds = 0;
  idle.frames = 0;
  idle.rows_examined = 123;  // nonzero numerator over a zero denominator
  idle.sent_cross = 7;
  result.workers = {idle, WorkerStats{}};
  result.channel_matrix.assign(2, std::vector<uint64_t>(2, 0));
  result.cross_tuples = 5;  // nonzero tuples but zero frames
  result.cross_frames = 0;
  ReportOptions options;
  options.channel_matrix = true;
  std::string report = RenderReport(result, options);
  EXPECT_EQ(report.find("inf"), std::string::npos) << report;
  EXPECT_EQ(report.find("nan"), std::string::npos) << report;
  EXPECT_NE(report.find("0.0 tuples/frame"), std::string::npos) << report;
}

TEST(ReportTest, ChannelMatrix) {
  ParallelResult result = RunAncestor(2);
  ReportOptions options;
  options.totals = false;
  options.per_worker = false;
  options.channel_matrix = true;
  std::string report = RenderReport(result, options);
  EXPECT_NE(report.find("from\\to"), std::string::npos);
  EXPECT_NE(report.find("p1"), std::string::npos);
}

TEST(ReportTest, BytesAccounting) {
  // Block framing: one header + count + checksum per frame, then 2
  // columns of 4 bytes per tuple.
  ParallelResult result = RunAncestor(4);
  EXPECT_GT(result.cross_frames, 0u);
  EXPECT_LE(result.cross_frames, result.cross_tuples);
  EXPECT_EQ(result.cross_bytes,
            result.cross_frames * (kBlockHeaderBytes + kWireChecksumBytes) +
                result.cross_tuples * 2 * kWireValueBytes);
}

TEST(ReportTest, ByteMatrixConsistentWithTupleMatrix) {
  ParallelResult result = RunAncestor(4);
  for (size_t i = 0; i < result.workers.size(); ++i) {
    for (size_t j = 0; j < result.workers.size(); ++j) {
      EXPECT_EQ(
          result.bytes_matrix[i][j],
          result.frames_matrix[i][j] *
                  (kBlockHeaderBytes + kWireChecksumBytes) +
              result.channel_matrix[i][j] * 2 * kWireValueBytes);
    }
  }
}

TEST(ReportTest, FramesMatrixConsistentWithWorkerFrames) {
  ParallelResult result = RunAncestor(4);
  for (size_t i = 0; i < result.workers.size(); ++i) {
    uint64_t row_frames = 0;
    for (size_t j = 0; j < result.workers.size(); ++j) {
      row_frames += result.frames_matrix[i][j];
    }
    EXPECT_EQ(row_frames, result.workers[i].frames);
  }
}

TEST(ReportTest, PercentileTableRendersOnlyWhenHistogramsPresent) {
  ParallelResult result = RunAncestor(3);  // untraced: no histograms
  EXPECT_EQ(RenderReport(result).find("percentiles"), std::string::npos);

  Histogram h;
  for (uint64_t v = 1; v <= 64; ++v) h.Record(v);
  result.metrics.MergeHistogram("hist.probe_ns", h);
  std::string report = RenderReport(result);
  EXPECT_NE(report.find("percentiles"), std::string::npos);
  EXPECT_NE(report.find("hist.probe_ns"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);

  ReportOptions off;
  off.histograms = false;
  EXPECT_EQ(RenderReport(result, off).find("percentiles"),
            std::string::npos);
}

TEST(ReportTest, TraceDropWarningAppearsInTotals) {
  ParallelResult result = RunAncestor(2);
  EXPECT_EQ(RenderReport(result).find("warning:"), std::string::npos);
  result.metrics.AddCounter("trace.dropped", 5);
  std::string report = RenderReport(result);
  EXPECT_NE(report.find("warning: trace ring overflow dropped 5 events"),
            std::string::npos);
  EXPECT_NE(report.find("--trace-ring-kb"), std::string::npos);
}

TEST(ReportTest, MakeProfileContextMirrorsResult) {
  ParallelResult result = RunAncestor(3);
  ProfileContext ctx = MakeProfileContext(result);
  EXPECT_EQ(ctx.tuples_matrix, result.channel_matrix);
  EXPECT_EQ(ctx.frames_matrix, result.frames_matrix);
  EXPECT_EQ(ctx.metrics, &result.metrics);
  ASSERT_EQ(ctx.sent_by_round.size(), result.worker_rounds.size());
  for (size_t i = 0; i < ctx.sent_by_round.size(); ++i) {
    ASSERT_EQ(ctx.sent_by_round[i].size(), result.worker_rounds[i].size());
    for (size_t r = 0; r < ctx.sent_by_round[i].size(); ++r) {
      EXPECT_EQ(ctx.sent_by_round[i][r],
                result.worker_rounds[i][r].sent_to);
    }
  }
}

TEST(TimelineTest, RendersOneRowPerProcessor) {
  ParallelResult result = RunAncestor(3);
  std::string timeline = RenderBspTimeline(result, 1.0, 0.0);
  EXPECT_NE(timeline.find("p0 |"), std::string::npos);
  EXPECT_NE(timeline.find("p2 |"), std::string::npos);
  EXPECT_EQ(std::count(timeline.begin(), timeline.end(), '\n'), 4);
}

// The shades are BspCost's per-(worker, superstep) charge (see
// CostModelTest.BspCellsChargeReceiversAndBspCostTakesTheirMax): cells
// of 10, 0, 1, 4 / 6, 5, 0, 0 / 0, 6, 14, 0 against a maximum of 14.
TEST(TimelineTest, PinnedShadesFollowBspCost) {
  auto log = [](uint64_t firings, std::vector<uint64_t> sent_to) {
    RoundLog r;
    r.firings = firings;
    r.sent_to = std::move(sent_to);
    return r;
  };
  ParallelResult result;
  result.worker_rounds = {
      {log(8, {0, 2, 0}), log(0, {0, 0, 0}), log(1, {0, 0, 6}),
       log(4, {0, 0, 0})},
      {log(2, {1, 0, 0}), log(5, {0, 0, 3})},
      {log(0, {0, 0, 0}), log(0, {0, 0, 0}), log(2, {0, 0, 0})}};
  EXPECT_EQ(RenderBspTimeline(result, 1.0, 2.0),
            "BSP timeline (cpu=1.0, net=2.0; column = superstep, darker = "
            "more loaded):\n"
            "p0 |+ ..|\n"
            "p1 |+.  |\n"
            "p2 | +# |\n");
}

TEST(TimelineTest, EmptyRunHandled) {
  ParallelResult result;
  EXPECT_EQ(RenderBspTimeline(result, 1.0, 1.0), "(no rounds)\n");
}

TEST(TimelineTest, WidthCapAggregates) {
  ParallelResult result = RunAncestor(2);
  std::string narrow = RenderBspTimeline(result, 1.0, 1.0, 5);
  // "pN |" + at most 5 columns + "|".
  size_t line_end = narrow.find('\n', narrow.find("p0 |"));
  size_t line_start = narrow.find("p0 |");
  EXPECT_LE(line_end - line_start, 4u + 5u + 1u);
}

}  // namespace
}  // namespace pdatalog
