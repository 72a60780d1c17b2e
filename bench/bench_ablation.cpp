// EXP-9 (ablations): measures the design choices DESIGN.md calls out.
//
//   A. Base-relation fragmentation (Section 3's b_k^i) on vs off:
//      same answers, same firings; fragmentation cuts the rows each
//      processor touches, chiefly in scan-driven initialization.
//   B. Greedy (most-bound-first) join ordering vs textual order: same
//      answers; greedy avoids accidental cartesian products.
#include <cstdio>

#include "bench_util.h"

using namespace pdatalog;
using bench::AncestorHarness;

namespace {

void AblateFragmentation() {
  std::printf("--- A: base fragmentation on/off (ancestor, Example 3) ---\n");
  TextTable table({"topology", "N", "fragments", "firings", "rows examined",
                   "replicated rows/proc"});
  for (const char* topology : {"chain", "random", "grid"}) {
    for (bool fragment : {true, false}) {
      const int P = 8;
      AncestorHarness h;
      Database base;
      bench::GenerateTopology(topology, &h.symbols, &base, "par", 7);
      LinearSchemeOptions options = h.Example3(P);
      options.fragment_bases = fragment;
      ParallelResult r = h.RunScheme(base, options, P);
      uint64_t rows = 0;
      for (const WorkerStats& w : r.workers) rows += w.rows_examined;
      uint64_t replicated =
          fragment ? 0 : base.Find(h.par())->size();
      table.AddRow({topology, TextTable::Cell(P), fragment ? "on" : "off",
                    TextTable::Cell(r.total_firings), TextTable::Cell(rows),
                    TextTable::Cell(replicated)});
    }
  }
  table.Print();
  std::printf(
      "expected: identical firings (the h(v(r)) = i constraint already\n"
      "selects the fragment); 'off' examines more rows because the\n"
      "initialization rule scans the full replicated relation on every\n"
      "processor, and must keep a full copy per processor.\n\n");
}

void AblateJoinOrder() {
  std::printf("--- B: greedy vs textual join order ---\n");
  // The textual order hits a cartesian product: after a(X, Y), atom
  // c(W, Z) shares no variable. Greedy reorders b(Y, W) in between.
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(
      "r(X, Z) :- a(X, Y), c(W, Z), b(Y, W).\n", &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);

  Database db_template;
  GenRandomGraph(&symbols, &db_template, "a", 60, 200, 1);
  GenRandomGraph(&symbols, &db_template, "b", 60, 200, 2);
  GenRandomGraph(&symbols, &db_template, "c", 60, 200, 3);

  TextTable table({"order", "firings", "rows examined", "ms"});
  for (bool greedy : {true, false}) {
    Database db;
    for (const auto& [pred, rel] : db_template.relations()) {
      db.GetOrCreate(pred, rel->arity()).InsertAll(*rel);
    }
    EvalOptions options;
    options.greedy_join_order = greedy;
    EvalStats stats;
    Stopwatch watch;
    Status status =
        SemiNaiveEvaluate(*program, info, &db, &stats, options);
    if (!status.ok()) AncestorHarness::Die("eval", status);
    table.AddRow({greedy ? "greedy" : "textual",
                  TextTable::Cell(stats.firings),
                  TextTable::Cell(stats.rows_examined),
                  TextTable::Cell(watch.ElapsedMillis(), 2)});
  }
  table.Print();
  std::printf(
      "expected: identical firings (same semantics); the textual order\n"
      "pays for the a x c cartesian product in rows examined.\n");
}

void AblateStratification() {
  std::printf("\n--- C: stratified vs monolithic sequential evaluation ---\n");
  // Two stacked transitive closures: while the lower closure is still
  // growing, the monolithic evaluator keeps probing the upper rules.
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "r2(X, Y) :- r1(X, Y).\n"
      "r2(X, Y) :- r1(X, Z), r2(Z, Y).\n",
      &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);

  TextTable table({"mode", "firings", "rows examined", "rounds", "ms"});
  for (bool stratified : {false, true}) {
    Database db;
    GenChain(&symbols, &db, "e", 60);
    EvalOptions options;
    options.stratified = stratified;
    EvalStats stats;
    Stopwatch watch;
    Status status =
        SemiNaiveEvaluate(*program, info, &db, &stats, options);
    if (!status.ok()) AncestorHarness::Die("eval", status);
    table.AddRow({stratified ? "stratified" : "monolithic",
                  TextTable::Cell(stats.firings),
                  TextTable::Cell(stats.rows_examined),
                  TextTable::Cell(stats.rounds),
                  TextTable::Cell(watch.ElapsedMillis(), 2)});
  }
  table.Print();
  std::printf(
      "expected: identical firings; the stratified run examines fewer\n"
      "rows because upper-stratum delta rules never execute during the\n"
      "lower stratum's rounds.\n");
}

}  // namespace

int main() {
  std::printf("EXP-9: ablations of design choices (not in the paper; they\n"
              "justify this implementation's defaults).\n\n");
  AblateFragmentation();
  AblateJoinOrder();
  AblateStratification();
  return 0;
}
