// Shared helpers for the benchmark harnesses in bench/.
//
// Each bench binary reproduces one experiment id of DESIGN.md's
// per-experiment index and prints (a) the series/rows the paper's
// artifact shows and (b) a "paper:" line stating the expected shape, so
// EXPERIMENTS.md can record paper-vs-measured side by side.
#ifndef PDATALOG_BENCH_BENCH_UTIL_H_
#define PDATALOG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/engine.h"
#include "core/network_graph.h"
#include "core/partition.h"
#include "core/schemes.h"
#include "datalog/parser.h"
#include "eval/seminaive.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "workload/generators.h"

namespace pdatalog {
namespace bench {

inline constexpr char kAncestorSource[] =
    "anc(X, Y) :- par(X, Y).\n"
    "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";

// Parsed + analyzed ancestor program with helpers for repeated runs.
struct AncestorHarness {
  SymbolTable symbols;
  Program program;
  ProgramInfo info;
  LinearSirup sirup;

  AncestorHarness() {
    StatusOr<Program> parsed = ParseProgram(kAncestorSource, &symbols);
    if (!parsed.ok()) Die("parse", parsed.status());
    program = std::move(*parsed);
    Status status = Validate(program, &info);
    if (!status.ok()) Die("validate", status);
    StatusOr<LinearSirup> s = ExtractLinearSirup(program, info);
    if (!s.ok()) Die("sirup", s.status());
    sirup = std::move(*s);
  }

  static void Die(const char* what, const Status& status) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }

  Symbol par() { return symbols.Intern("par"); }
  Symbol anc() { return symbols.Intern("anc"); }
  Symbol Var(const char* name) { return symbols.Intern(name); }

  // Copies the `par` relation of `source` into a fresh database.
  Database CloneEdb(const Database& source) {
    Database db;
    const Relation* rel = source.Find(par());
    if (rel != nullptr) {
      db.GetOrCreate(par(), 2).InsertAll(*rel);
    }
    return db;
  }

  // Sequential semi-naive over a copy of `source`'s par relation.
  EvalStats RunSequential(const Database& source) {
    Database db = CloneEdb(source);
    EvalStats stats;
    Status status = SemiNaiveEvaluate(program, info, &db, &stats);
    if (!status.ok()) Die("sequential", status);
    return stats;
  }

  // Section 4 scheme options by name (core/schemes.h).
  LinearSchemeOptions Example1(int P, uint64_t seed = 0x5eed) {
    StatusOr<LinearSchemeOptions> o = CommunicationFreeScheme(sirup, P, seed);
    if (!o.ok()) Die("example1", o.status());
    return std::move(*o);
  }
  LinearSchemeOptions Example2(const Database& edb, int P,
                               uint64_t seed = 0x5eed) {
    StatusOr<LinearSchemeOptions> o = FragmentationScheme(sirup, edb, P, seed);
    if (!o.ok()) Die("example2", o.status());
    return std::move(*o);
  }
  LinearSchemeOptions Example3(int P, uint64_t seed = 0x5eed) {
    return HashScheme(sirup, Example3Vars(sirup), P, seed);
  }

  ParallelResult RunScheme(const Database& source,
                           const LinearSchemeOptions& options, int P,
                           const ParallelOptions& popts = {}) {
    StatusOr<RewriteBundle> bundle =
        RewriteLinearSirup(program, info, sirup, P, options);
    if (!bundle.ok()) Die("rewrite", bundle.status());
    Database edb = CloneEdb(source);
    StatusOr<ParallelResult> result = RunParallel(*bundle, &edb, popts);
    if (!result.ok()) Die("parallel", result.status());
    return std::move(*result);
  }
};

// Named workload topologies used across the benches.
inline size_t GenerateTopology(const std::string& name, SymbolTable* symbols,
                               Database* db, const std::string& predicate,
                               uint64_t seed) {
  if (name == "chain") return GenChain(symbols, db, predicate, 200);
  if (name == "tree") return GenTree(symbols, db, predicate, 3, 5);
  if (name == "random") {
    return GenRandomGraph(symbols, db, predicate, 150, 450, seed);
  }
  if (name == "grid") return GenGrid(symbols, db, predicate, 12, 12);
  if (name == "cycle") return GenCycle(symbols, db, predicate, 60);
  std::fprintf(stderr, "unknown topology %s\n", name.c_str());
  std::exit(1);
}

}  // namespace bench
}  // namespace pdatalog

#endif  // PDATALOG_BENCH_BENCH_UTIL_H_
