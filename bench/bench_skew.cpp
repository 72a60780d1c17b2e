// EXP-10: skew-adaptive repartitioning — the rebalancer against a
// Zipf-skewed ancestor workload on the Example 3 hash scheme.
//
// The workload hashes on the recursive join variable Z, so a node with
// very high in-degree concentrates its join firings on one processor:
// the straggler the profiler names. With --rebalance-skew the
// coordinator moves (or replicates) the hot discriminating-hash buckets
// between rounds; the firings concentration and the modeled makespan
// must both drop while the fixpoint stays bit-identical.
//
// The headline metrics are the work-model ones (max/mean firings and
// ModeledMakespan — see DESIGN.md), not wall time. The run exits 1
// unless rebalancing clears the acceptance bar below on both with an
// identical fixpoint.
//
// `bench_skew smoke` runs a smaller input for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "core/rebalance.h"

using namespace pdatalog;
using bench::AncestorHarness;

namespace {

double FiringsSkew(const ParallelResult& result) {
  uint64_t max = 0;
  uint64_t total = 0;
  for (const WorkerStats& w : result.workers) {
    max = std::max(max, w.firings);
    total += w.firings;
  }
  if (total == 0 || result.workers.empty()) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(result.workers.size());
  return static_cast<double>(max) / mean;
}

std::string AncDump(const ParallelResult& result, AncestorHarness* h) {
  const Relation* rel = result.output.Find(h->anc());
  return rel == nullptr ? "" : rel->ToSortedString(h->symbols);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  // A lower Zipf exponent spreads the heat over several hot keys (one
  // mega-key is unsplittable at bucket granularity: max/mean can never
  // drop below the key's share of the total), and a sparse graph keeps
  // the fixpoint running long enough for mid-run decisions to matter.
  const int P = 8;
  const int nodes = smoke ? 300 : 1200;
  const int edges = smoke ? 750 : 3000;
  const double exponent = 1.2;

  AncestorHarness h;
  Database base;
  size_t inserted =
      GenZipfGraph(&h.symbols, &base, "par", nodes, edges, exponent, 3);

  std::printf(
      "EXP-10: skew-adaptive repartitioning (ancestor/example3, %d "
      "processors,\nZipf(%.1f) graph: %zu edges over %d nodes).\n"
      "expectation: the hot join-variable bucket concentrates firings on\n"
      "one processor; rebalancing moves it and flattens the distribution\n"
      "without changing the fixpoint.\n\n",
      P, exponent, inserted, nodes);

  LinearSchemeOptions scheme = h.Example3(P);
  // Rebalancing precondition: bases replicated, not fragmented (a
  // fragmented base cannot follow a moved bucket).
  scheme.fragment_bases = false;

  ParallelOptions off;
  off.use_threads = false;  // deterministic round-robin schedule
  ParallelResult before = h.RunScheme(base, scheme, P, off);

  ParallelOptions on = off;
  // Act early: the hot bucket dominates the heat histogram from the
  // first rounds, and semi-naive discovers most derivations in the early
  // rounds — a late move has nothing left to shed. The long default
  // cooldown still prevents thrash, and the coordinator stops on its own
  // once skew falls under the threshold.
  on.rebalance.skew_threshold = 1.3;
  ParallelResult after = h.RunScheme(base, scheme, P, on);

  const double skew_before = FiringsSkew(before);
  const double skew_after = FiringsSkew(after);
  const double makespan_before = before.ModeledMakespan(1.0, 1.0);
  const double makespan_after = after.ModeledMakespan(1.0, 1.0);
  const double skew_drop = 1.0 - skew_after / skew_before;
  const double makespan_drop = 1.0 - makespan_after / makespan_before;
  const uint64_t moves = after.metrics.counter("rebalance.moves");
  const uint64_t replications =
      after.metrics.counter("rebalance.replications");
  const bool identical = AncDump(before, &h) == AncDump(after, &h);
  // The acceptance bar: >=30% less firings concentration, >=15% less
  // modeled makespan, bit-identical fixpoint. The smoke input is a CI
  // sanity check on a much smaller closure (fewer rounds for decisions
  // to pay off in), so it carries a proportionally smaller bar.
  const double skew_bar = smoke ? 0.15 : 0.30;
  const double makespan_bar = smoke ? 0.05 : 0.15;
  const bool improved =
      skew_drop >= skew_bar && makespan_drop >= makespan_bar;

  TextTable table({"rebalance", "max/mean firings", "modeled makespan",
                   "moves", "replications"});
  table.AddRow({TextTable::Cell("off"), TextTable::Cell(skew_before, 3),
                TextTable::Cell(makespan_before, 0), TextTable::Cell(0),
                TextTable::Cell(0)});
  table.AddRow({TextTable::Cell("on"), TextTable::Cell(skew_after, 3),
                TextTable::Cell(makespan_after, 0), TextTable::Cell(moves),
                TextTable::Cell(replications)});
  table.Print();

  std::printf("\nper-worker firings (off):");
  for (const WorkerStats& w : before.workers) {
    std::printf(" %llu", static_cast<unsigned long long>(w.firings));
  }
  std::printf("\nper-worker firings (on): ");
  for (const WorkerStats& w : after.workers) {
    std::printf(" %llu", static_cast<unsigned long long>(w.firings));
  }
  std::printf("\ndecisions:\n");
  for (const RebalanceLogEntry& e : after.rebalance_log) {
    std::printf(
        "  window %llu: bucket %u from %d to %s (%llu work units, skew "
        "%.2f)\n",
        static_cast<unsigned long long>(e.window), e.bucket, e.from,
        e.to < 0 ? "replicate" : std::to_string(e.to).c_str(),
        static_cast<unsigned long long>(e.tuples), e.skew);
  }
  std::printf(
      "\nskew ratio %.3f -> %.3f (-%.0f%%), modeled makespan %.0f -> %.0f "
      "(-%.0f%%)\nfixpoint identical: %s, decisions: %llu moves + %llu "
      "replications\n",
      skew_before, skew_after, skew_drop * 100.0, makespan_before,
      makespan_after, makespan_drop * 100.0, identical ? "yes" : "NO",
      static_cast<unsigned long long>(moves),
      static_cast<unsigned long long>(replications));

  if (!identical) {
    std::fprintf(stderr, "FIXPOINT MISMATCH: rebalancing changed results\n");
    return 1;
  }
  if (!improved) {
    std::fprintf(stderr,
                 "SKEW NOT IMPROVED: need -%.0f%% skew and -%.0f%% makespan\n",
                 skew_bar * 100.0, makespan_bar * 100.0);
    return 1;
  }
  return 0;
}
