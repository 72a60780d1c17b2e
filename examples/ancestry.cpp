// Ancestry at scale: the three parallelizations of Section 4 side by
// side on a synthetic genealogy, showing the paper's trade-off between
// base-relation placement and communication.
//
//   Example 1 (Wolfson-Silberschatz): no communication, par replicated.
//   Example 2 (Valduriez-Khoshafian): arbitrary fragments, broadcast.
//   Example 3 (this paper):           disjoint fragments, point-to-point.
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "core/schemes.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "util/table.h"
#include "workload/generators.h"

using namespace pdatalog;

namespace {

constexpr int kProcessors = 4;

struct SchemeRun {
  std::string name;
  uint64_t firings = 0;
  uint64_t cross = 0;
  uint64_t self = 0;
  uint64_t replicated_base_rows = 0;
  bool correct = false;
};

}  // namespace

int main() {
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);

  // A genealogy: a ternary family tree, 5 generations deep.
  Database base;
  size_t edges = GenTree(&symbols, &base, "par", 3, 5);
  std::printf("genealogy: %zu parent-child edges, %d processors\n\n", edges,
              kProcessors);

  // Sequential reference.
  Database seq_db;
  {
    const Relation* par = base.Find(symbols.Lookup("par"));
    Relation& copy = seq_db.GetOrCreate(symbols.Lookup("par"), 2);
    for (size_t r = 0; r < par->size(); ++r) copy.Insert(par->row(r));
  }
  EvalStats seq_stats;
  (void)SemiNaiveEvaluate(*program, info, &seq_db, &seq_stats);
  std::string expected =
      seq_db.Find(symbols.Lookup("anc"))->ToSortedString(symbols);
  std::printf("sequential: %zu anc tuples, %llu firings\n\n",
              seq_db.Find(symbols.Lookup("anc"))->size(),
              static_cast<unsigned long long>(seq_stats.firings));

  auto run_scheme = [&](const std::string& name, SchemeKind kind) {
    SchemeRun run;
    run.name = name;
    SchemeRequest request;
    request.kind = kind;
    request.processors = kProcessors;
    StatusOr<BuiltScheme> scheme = BuildScheme(*program, info, base, request);
    if (!scheme.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   scheme.status().ToString().c_str());
      return run;
    }
    const RewriteBundle& bundle = scheme->bundle;
    for (const BaseOccurrence& occ : bundle.base_occurrences) {
      if (occ.access == BaseOccurrence::Access::kReplicated) {
        run.replicated_base_rows += base.Find(symbols.Lookup("par"))->size();
      }
    }
    Database edb;
    const Relation* par = base.Find(symbols.Lookup("par"));
    Relation& copy = edb.GetOrCreate(symbols.Lookup("par"), 2);
    for (size_t r = 0; r < par->size(); ++r) copy.Insert(par->row(r));
    StatusOr<ParallelResult> result = RunParallel(bundle, &edb);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return run;
    }
    run.firings = result->total_firings;
    run.cross = result->cross_tuples;
    run.self = result->self_tuples;
    run.correct = result->output.Find(symbols.Lookup("anc"))
                      ->ToSortedString(symbols) == expected;
    return run;
  };

  std::vector<SchemeRun> runs;

  runs.push_back(run_scheme("example1 (no-comm)", SchemeKind::kExample1));
  runs.push_back(run_scheme("example2 (broadcast)", SchemeKind::kExample2));
  runs.push_back(
      run_scheme("example3 (point-to-point)", SchemeKind::kExample3));

  TextTable table({"scheme", "firings", "cross-msgs", "self-msgs",
                   "replicated base rows", "correct"});
  for (const SchemeRun& run : runs) {
    table.AddRow({run.name, TextTable::Cell(run.firings),
                  TextTable::Cell(run.cross), TextTable::Cell(run.self),
                  TextTable::Cell(run.replicated_base_rows),
                  run.correct ? "yes" : "NO"});
  }
  table.Print();

  std::printf(
      "\nreading guide: all three schemes do the same total work\n"
      "(non-redundant, Theorem 2) but occupy different points on the\n"
      "storage/communication spectrum: example1 replicates par and never\n"
      "communicates; example2 accepts any fragmentation of par but\n"
      "broadcasts every tuple; example3 uses disjoint fragments and sends\n"
      "each tuple to exactly one processor (Section 4.3).\n");
  // A scheme that failed or disagrees with the sequential fixpoint
  // fails the run.
  for (const SchemeRun& run : runs) {
    if (!run.correct) return 1;
  }
  return 0;
}
