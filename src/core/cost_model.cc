#include "core/cost_model.h"

#include <algorithm>

namespace pdatalog {

std::vector<std::vector<BspCell>> BspCells(
    const std::vector<std::vector<RoundLog>>& rounds,
    const CostParams& params) {
  const size_t workers = rounds.size();
  size_t max_rounds = 0;
  for (const auto& log : rounds) max_rounds = std::max(max_rounds, log.size());
  std::vector<std::vector<BspCell>> cells(workers,
                                          std::vector<BspCell>(max_rounds));
  for (size_t k = 0; k < max_rounds; ++k) {
    std::vector<uint64_t> recv_cross(workers, 0);
    for (size_t i = 0; i < workers; ++i) {
      if (k >= rounds[i].size()) continue;
      const std::vector<uint64_t>& sent_to = rounds[i][k].sent_to;
      for (size_t j = 0; j < workers && j < sent_to.size(); ++j) {
        if (j != i) recv_cross[j] += sent_to[j];
      }
    }
    for (size_t j = 0; j < workers; ++j) {
      const uint64_t firings = k < rounds[j].size() ? rounds[j][k].firings : 0;
      cells[j][k].compute =
          static_cast<double>(firings) * params.cpu_per_firing;
      cells[j][k].network =
          static_cast<double>(recv_cross[j]) * params.net_per_message;
    }
  }
  return cells;
}

CostBreakdown BspCost(const std::vector<std::vector<RoundLog>>& rounds,
                      const CostParams& params) {
  const std::vector<std::vector<BspCell>> cells = BspCells(rounds, params);
  CostBreakdown out;
  out.supersteps = cells.empty() ? 0 : static_cast<int>(cells[0].size());
  for (int k = 0; k < out.supersteps; ++k) {
    double compute = 0.0, network = 0.0, total = 0.0;
    for (const std::vector<BspCell>& worker : cells) {
      compute = std::max(compute, worker[k].compute);
      network = std::max(network, worker[k].network);
      total = std::max(total, worker[k].compute + worker[k].network);
    }
    out.compute += compute;
    out.network += network;
    out.makespan += total + params.round_latency;
  }
  return out;
}

}  // namespace pdatalog
