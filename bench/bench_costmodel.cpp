// EXP-10: the architecture study the paper defers (Section 8): which
// scheme should a compiler pick for a given comm/compute cost ratio?
//
// Every scheme's execution is replayed through the BSP cost model
// (core/cost_model.h) while the per-message cost sweeps from free to
// 16x a firing. Deterministic round-robin scheduling keeps the round
// structure reproducible.
#include <cstdio>

#include "bench_util.h"
#include "core/cost_model.h"

using namespace pdatalog;
using bench::AncestorHarness;

namespace {

struct SchemeRun {
  std::string name;
  std::vector<std::vector<RoundLog>> rounds;
};

ParallelResult RunDeterministic(AncestorHarness* h, const Database& base,
                                const LinearSchemeOptions& options, int P) {
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(h->program, h->info, h->sirup, P, options);
  if (!bundle.ok()) AncestorHarness::Die("rewrite", bundle.status());
  Database edb = h->CloneEdb(base);
  ParallelOptions popts;
  popts.use_threads = false;
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, popts);
  if (!result.ok()) AncestorHarness::Die("run", result.status());
  return std::move(*result);
}

ParallelResult RunTradeoffDeterministic(AncestorHarness* h,
                                        const Database& base, double rho,
                                        int P) {
  StatusOr<RewriteBundle> bundle =
      RewriteTradeoff(h->program, h->info, h->sirup, P,
                      TradeoffScheme(h->sirup, rho, P));
  if (!bundle.ok()) AncestorHarness::Die("rewrite", bundle.status());
  Database edb = h->CloneEdb(base);
  ParallelOptions popts;
  popts.use_threads = false;
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, popts);
  if (!result.ok()) AncestorHarness::Die("run", result.status());
  return std::move(*result);
}

}  // namespace

int main() {
  std::printf(
      "EXP-10: BSP cost-model sweep — scheme choice vs communication\n"
      "cost (Section 8: \"the particular scheme used in a compiler may\n"
      "be dependent on the underlying characteristics of the\n"
      "architecture\").\n\n");

  const int P = 4;
  for (const char* topology : {"random", "grid"}) {
    AncestorHarness h;
    Database base;
    size_t edges =
        bench::GenerateTopology(topology, &h.symbols, &base, "par", 21);
    EvalStats seq = h.RunSequential(base);
    std::printf("topology=%s edges=%zu N=%d  sequential work: %llu\n",
                topology, edges, P,
                static_cast<unsigned long long>(seq.firings));

    std::vector<SchemeRun> runs;
    runs.push_back(
        {"example1", RunDeterministic(&h, base, h.Example1(P), P)
                         .worker_rounds});
    runs.push_back(
        {"example2",
         RunDeterministic(&h, base, h.Example2(base, P), P).worker_rounds});
    runs.push_back(
        {"example3", RunDeterministic(&h, base, h.Example3(P), P)
                         .worker_rounds});
    runs.push_back(
        {"tradeoff(0.5)",
         RunTradeoffDeterministic(&h, base, 0.5, P).worker_rounds});
    runs.push_back(
        {"tradeoff(1.0)",
         RunTradeoffDeterministic(&h, base, 1.0, P).worker_rounds});

    std::vector<std::string> header = {"net/cpu"};
    for (const SchemeRun& run : runs) header.push_back(run.name);
    header.push_back("winner");
    TextTable table(header);

    for (double net : {0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
      CostParams params;
      params.cpu_per_firing = 1.0;
      params.net_per_message = net;
      std::vector<std::string> row = {TextTable::Cell(net, 2)};
      double best = -1;
      std::string winner;
      for (const SchemeRun& run : runs) {
        double makespan = BspCost(run.rounds, params).makespan;
        row.push_back(TextTable::Cell(makespan, 0));
        if (best < 0 || makespan < best) {
          best = makespan;
          winner = run.name;
        }
      }
      row.push_back(winner);
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }

  std::printf(
      "reading guide: example1 dominates whenever it applies — it\n"
      "needs a cyclic dataflow graph and a replicable base relation;\n"
      "its cost is storage, which a time model does not charge. When\n"
      "those preconditions fail, the choice is example3 vs the Section 6\n"
      "spectrum: example3 (non-redundant) wins while communication is\n"
      "cheap, and the redundant-but-silent tradeoff(1.0) overtakes it as\n"
      "the per-message cost grows — the compile-time, architecture-\n"
      "dependent decision Section 8 anticipates. example2's broadcasts\n"
      "are dominated at every positive cost ratio.\n");
  return 0;
}
