// EXP-5: the Section 6 redundancy/communication trade-off, swept.
//
// The R_i scheme lets each processor keep a fraction rho of its outputs
// for self-processing (h_i keep-or-hash). rho = 0 is the non-redundant
// Section 3 scheme; rho = 1 is the no-communication scheme of [18].
// The paper: "more communication would lead to lesser redundancy, and
// vice-versa" — executions are "points along a spectrum whose extremes
// are characterized by non-redundancy and no communication."
#include <cstdio>

#include "bench_util.h"

using namespace pdatalog;
using bench::AncestorHarness;

int main() {
  std::printf(
      "EXP-5: Section 6 trade-off spectrum (ancestor, keep-fraction "
      "rho).\n"
      "paper: communication falls and redundancy rises as rho goes from\n"
      "0 (Section 3 scheme) to 1 (scheme of [18]).\n\n");

  for (const char* topology : {"random", "tree"}) {
    for (int P : {4, 8}) {
      AncestorHarness h;
      Database base;
      size_t edges =
          bench::GenerateTopology(topology, &h.symbols, &base, "par", 3);
      EvalStats seq = h.RunSequential(base);
      std::printf("topology=%s edges=%zu N=%d  sequential firings: %llu\n",
                  topology, edges, P,
                  static_cast<unsigned long long>(seq.firings));

      TextTable table({"rho", "firings", "redundancy", "cross-msgs",
                       "makespan(c=1,n=4)"});
      for (double rho : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        StatusOr<RewriteBundle> bundle =
            RewriteTradeoff(h.program, h.info, h.sirup, P,
                            TradeoffScheme(h.sirup, rho, P));
        if (!bundle.ok()) AncestorHarness::Die("rewrite", bundle.status());
        Database edb = h.CloneEdb(base);
        StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
        if (!result.ok()) AncestorHarness::Die("run", result.status());

        double redundancy =
            seq.firings == 0
                ? 1.0
                : static_cast<double>(result->total_firings) /
                      static_cast<double>(seq.firings);
        table.AddRow({TextTable::Cell(rho, 2),
                      TextTable::Cell(result->total_firings),
                      TextTable::Cell(redundancy, 3),
                      TextTable::Cell(result->cross_tuples),
                      TextTable::Cell(result->ModeledMakespan(1.0, 4.0), 0)});
      }
      table.Print();
      std::printf("\n");
    }
  }

  std::printf(
      "reading guide: cross-msgs decreases monotonically to 0 at rho=1;\n"
      "redundancy is 1.000 at rho=0 and grows with rho whenever tuples\n"
      "have multiple derivation sites. The modeled makespan (cpu=1,\n"
      "net=4 per message) typically has an interior optimum: some\n"
      "redundancy is worth buying when communication is expensive —\n"
      "the architectural point of Section 8.\n");
  return 0;
}
