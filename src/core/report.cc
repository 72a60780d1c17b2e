#include "core/report.h"

#include <algorithm>

#include "core/cost_model.h"
#include "util/table.h"

namespace pdatalog {

std::string RenderReport(const ParallelResult& result,
                         const ReportOptions& options) {
  std::string out;
  const size_t n = result.workers.size();

  if (options.totals) {
    double tuples_per_frame =
        result.cross_frames == 0
            ? 0.0
            : static_cast<double>(result.cross_tuples) /
                  static_cast<double>(result.cross_frames);
    out += "totals: " + std::to_string(result.total_firings) +
           " firings, " + std::to_string(result.pooled_tuples) +
           " output tuples, " + std::to_string(result.cross_tuples) +
           " cross messages (" + std::to_string(result.cross_bytes) +
           " bytes, " + std::to_string(result.cross_frames) + " frames, " +
           TextTable::Cell(tuples_per_frame, 1) + " tuples/frame), " +
           std::to_string(result.self_tuples) + " self-routed, " +
           TextTable::Cell(result.wall_seconds * 1e3, 2) + " ms\n";
    out += TraceDropWarning(result.metrics.counter("trace.dropped"));
    if (result.faults.any()) {
      out += "faults: " + std::to_string(result.faults.dropped) +
             " dropped, " + std::to_string(result.faults.duplicated) +
             " duplicated, " + std::to_string(result.faults.reordered) +
             " reordered, " + std::to_string(result.faults.corrupted) +
             " corrupted, " + std::to_string(result.faults.delayed) +
             " delayed; " + std::to_string(result.faults.retransmitted) +
             " retransmitted, " +
             std::to_string(result.faults.duplicates_discarded) +
             " duplicates discarded, " +
             std::to_string(result.faults.corrupt_discarded) +
             " corrupt frames discarded\n";
    }
  }

  if (options.per_worker) {
    TextTable table({"proc", "rounds", "firings", "out", "in", "recv",
                     "sent-cross", "sent-self", "frames", "tup/frame",
                     "rows examined", "rows/round"});
    for (size_t i = 0; i < n; ++i) {
      const WorkerStats& w = result.workers[i];
      // Every ratio guards its denominator: a worker that flushed no
      // frames (or ran no rounds) reports 0.0, not inf/nan.
      double tuples_per_frame =
          w.frames == 0
              ? 0.0
              : static_cast<double>(w.sent_cross + w.sent_self) /
                    static_cast<double>(w.frames);
      double rows_per_round =
          w.rounds == 0 ? 0.0
                        : static_cast<double>(w.rows_examined) /
                              static_cast<double>(w.rounds);
      table.AddRow({TextTable::Cell(static_cast<int>(i)),
                    TextTable::Cell(w.rounds), TextTable::Cell(w.firings),
                    TextTable::Cell(w.out_inserted),
                    TextTable::Cell(w.in_inserted),
                    TextTable::Cell(w.received),
                    TextTable::Cell(w.sent_cross),
                    TextTable::Cell(w.sent_self),
                    TextTable::Cell(w.frames),
                    TextTable::Cell(tuples_per_frame, 1),
                    TextTable::Cell(w.rows_examined),
                    TextTable::Cell(rows_per_round, 1)});
    }
    out += table.ToString();
  }

  if (options.channel_matrix) {
    std::vector<std::string> header = {"from\\to"};
    for (size_t j = 0; j < n; ++j) {
      header.push_back("p" + std::to_string(j));
    }
    TextTable table(std::move(header));
    for (size_t i = 0; i < n; ++i) {
      std::vector<std::string> row = {"p" + std::to_string(i)};
      for (size_t j = 0; j < n; ++j) {
        row.push_back(TextTable::Cell(result.channel_matrix[i][j]));
      }
      table.AddRow(std::move(row));
    }
    out += table.ToString();
  }

  if (options.histograms) {
    out += RenderHistogramTable(result.metrics);
  }
  return out;
}

std::string TraceDropWarning(uint64_t dropped) {
  if (dropped == 0) return "";
  return "warning: trace ring overflow dropped " + std::to_string(dropped) +
         " events; the exported trace and profile are truncated "
         "(raise --trace-ring-kb)\n";
}

std::string RenderHistogramTable(const MetricsRegistry& metrics) {
  if (metrics.histograms().empty()) return "";
  std::string out = "percentiles (ns for *_ns, counts otherwise):\n";
  TextTable table({"metric", "count", "p50", "p95", "p99", "max"});
  for (const auto& [name, h] : metrics.histograms()) {
    table.AddRow({name, TextTable::Cell(h.count()),
                  TextTable::Cell(h.Percentile(50), 0),
                  TextTable::Cell(h.Percentile(95), 0),
                  TextTable::Cell(h.Percentile(99), 0),
                  TextTable::Cell(h.max())});
  }
  out += table.ToString();
  return out;
}

ProfileContext MakeProfileContext(const ParallelResult& result) {
  ProfileContext ctx;
  ctx.tuples_matrix = result.channel_matrix;
  ctx.frames_matrix = result.frames_matrix;
  ctx.sent_by_round.resize(result.worker_rounds.size());
  for (size_t i = 0; i < result.worker_rounds.size(); ++i) {
    ctx.sent_by_round[i].reserve(result.worker_rounds[i].size());
    for (const RoundLog& log : result.worker_rounds[i]) {
      ctx.sent_by_round[i].push_back(log.sent_to);
    }
  }
  ctx.rebalance_log = result.rebalance_log;
  ctx.metrics = &result.metrics;
  return ctx;
}

std::string RenderBspTimeline(const ParallelResult& result,
                              double cpu_cost, double net_cost, int width) {
  // Per (worker, superstep) cost, as BspCost charges it.
  const std::vector<std::vector<BspCell>> cells =
      BspCells(result.worker_rounds, CostParams{cpu_cost, net_cost, 0.0});
  const size_t n = cells.size();
  const size_t max_rounds = n == 0 ? 0 : cells[0].size();
  if (max_rounds == 0) return "(no rounds)\n";
  double max_cost = 0;
  for (const std::vector<BspCell>& worker : cells) {
    for (const BspCell& cell : worker) {
      max_cost = std::max(max_cost, cell.compute + cell.network);
    }
  }
  if (max_cost == 0) max_cost = 1;

  // One char column per superstep block, bar height scaled into 8
  // levels using 1/8th block approximations in ASCII (#, +, ., space).
  int cols = std::min<int>(static_cast<int>(max_rounds), width);
  std::string out = "BSP timeline (cpu=" + TextTable::Cell(cpu_cost, 1) +
                    ", net=" + TextTable::Cell(net_cost, 1) +
                    "; column = superstep, darker = more loaded):\n";
  for (size_t j = 0; j < n; ++j) {
    out += "p" + std::to_string(j) + " |";
    for (int k = 0; k < cols; ++k) {
      // When supersteps exceed width, aggregate ranges of rounds.
      size_t lo = static_cast<size_t>(k) * max_rounds / cols;
      size_t hi = static_cast<size_t>(k + 1) * max_rounds / cols;
      double c = 0;
      for (size_t r = lo; r < std::max(hi, lo + 1) && r < max_rounds; ++r) {
        c = std::max(c, cells[j][r].compute + cells[j][r].network);
      }
      double share = c / max_cost;
      out += share > 0.75  ? '#'
             : share > 0.4 ? '+'
             : share > 0.0 ? '.'
                           : ' ';
    }
    out += "|\n";
  }
  return out;
}

}  // namespace pdatalog
