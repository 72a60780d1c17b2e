// Shared pieces of the repository benchmark: options, the result
// record, timing/statistics helpers, input generation, and the traced
// per-layer breakdown of one parallel fixpoint.
//
// The benchmark measures every layer from outside: it times calls into
// the library's public functions and reads the tracing the runtime
// already records (ParallelOptions::tracer, ServerOptions::trace). It
// adds nothing to src/.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/rewrite.h"
#include "datalog/analysis.h"
#include "datalog/ast.h"
#include "datalog/symbol_table.h"
#include "datalog/validate.h"
#include "storage/database.h"

namespace perfbench {

using namespace pdatalog;

inline constexpr char kAncestorRules[] =
    "anc(X, Y) :- par(X, Y).\n"
    "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";

// Hash seed of the discriminating functions; fixed so that the
// workload seed varies only the inputs.
inline constexpr uint64_t kHashSeed = 0x5eed;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test knobs: tiny inputs, and an oracle with one tuple dropped
  // (the run must then report a failure).
  bool smoke = false;
  bool corrupt_oracle = false;
};

// Everything one invocation reports. `metrics` holds every number the
// run measured (end-to-end and, in traced runs, per-layer); `detail`
// holds informational values (environment, validity, notes).
struct RunRecord {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  std::map<std::string, std::string> detail;  // value is raw JSON
  // Non-empty when the measurement itself is invalid (an open loop that
  // could not keep its schedule): no result is printed.
  std::string invalid;

  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& key, const std::string& text);  // string
  void NoteNumber(const std::string& key, double value);
  void NoteSeries(const std::string& key, const std::vector<double>& values);
  void Fail(const std::string& why);  // correctness failure
  std::string ToJson() const;
};

// --- timing and statistics ------------------------------------------

double NowSeconds();  // steady clock
double PeakRssMb();   // getrusage high-water mark of this process
double Quantile(std::vector<double> values, double q);  // q in [0, 1]
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

// --- the ancestor program --------------------------------------------

// A parsed and validated ancestor program. Heap-pinned: the program
// points at the symbol table.
struct Ancestor {
  SymbolTable symbols;
  Program program;
  ProgramInfo info;
  LinearSirup sirup;
};

// ParseProgram + Validate + ExtractLinearSirup over `source`.
StatusOr<std::unique_ptr<Ancestor>> ParseAncestor(const std::string& source);

enum class Scheme { kExample1, kExample3 };
const char* SchemeName(Scheme scheme);
LinearSchemeOptions SchemeOptions(Ancestor* a, Scheme scheme, int P);

// --- inputs ------------------------------------------------------------

using Edge = std::pair<int, int>;

// Edge lists from the library's generators (node i is named "n<i>").
std::vector<Edge> RandomGraphEdges(int nodes, int edges, uint64_t seed);
std::vector<Edge> ZipfGraphEdges(int nodes, int edges, double exponent,
                                 uint64_t seed);
// "n<a>\tn<b>\n" lines: the text LoadFactsFromString reads.
std::string EdgesTsv(const std::vector<Edge>& edges);

// A stream of base-fact updates that keeps the fixpoint nearly
// stationary: nine in ten are new shortcut edges (a, b) whose target is
// already reachable from a (they re-derive but add no anc tuple), one in
// ten attaches a fresh leaf "f<k>" below a random node (adds one anc
// tuple per ancestor of that node).
struct UpdateEdge {
  std::string from;
  std::string to;
};
std::vector<UpdateEdge> UpdateStream(const std::vector<Edge>& base,
                                     int nodes, size_t count, uint64_t seed);

// --- correctness -------------------------------------------------------

// Order-independent fingerprint of a relation's rows.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;
  bool operator==(const Fingerprint&) const = default;
};
Fingerprint FingerprintOf(const Relation* relation);

// Sequential semi-naive oracle over the `par` facts in `par_tsv`, for
// the ancestor program and symbol table of `a`. With `drop_one`, one anc tuple is removed from the oracle —
// the self-test's deliberately wrong oracle.
struct Oracle {
  Database db;
  EvalStats stats;
  double seconds = 0;
  std::unique_ptr<Relation> dropped;  // anc minus one row (drop_one)
  const Relation* anc = nullptr;
};
StatusOr<std::unique_ptr<Oracle>> RunOracle(Ancestor* a,
                                            const std::string& par_tsv,
                                            bool drop_one);

// True when `got` holds exactly the tuples of `want`.
bool SameRelation(const Relation* want, const Relation* got);

// --- one parallel fixpoint with its layer breakdown ----------------------

struct FixpointRun {
  double fixpoint_s = 0;  // RewriteLinearSirup + RunParallel (caller's wait)
  double rewrite_s = 0;
  std::unique_ptr<ParallelResult> result;
  // Steady-clock ticks (the tracer's clock) after the rewrite and at the
  // return, for the uncovered-interval reconciliation of traced runs.
  uint64_t rewrite_end_ticks = 0;
  uint64_t end_ticks = 0;
};

// Rewrites and runs the ancestor fixpoint on `edb` under `scheme` with P
// workers, mutex transport and 256-tuple blocks.
StatusOr<FixpointRun> RunFixpoint(Ancestor* a, Scheme scheme, int P,
                                  Database* edb, Tracer* tracer);

// Per-layer numbers of one traced fixpoint (names as in README.md).
// Partition is timed by a separate PartitionBases call on the same
// bundle, after the run.
void AddFixpointLayers(Ancestor* a, Scheme scheme, int P,
                       const FixpointRun& run, const Tracer& tracer,
                       const Database& edb, RunRecord* layers);

// What every workload samples of set-up and of the parallel fixpoint.
struct LayerSamples {
  std::vector<double> parse_ms;  // ParseProgram + Validate + sirup
  std::vector<double> load_ms;   // LoadFactsFromString
  size_t loaded_rows = 0;
  std::vector<double> fixpoint_s;         // untraced
  std::vector<double> traced_fixpoint_s;  // traced
  std::vector<RunRecord> traced_layers;   // AddFixpointLayers, per traced run
};

// Reports fixpoint_s, the datalog layer, the traced fixpoint layers
// (medians over the traced runs), the oracle comparison, the tracing
// overhead and failed_share.
void ReportLayers(const LayerSamples& samples, double seminaive_s,
                  RunRecord* record);

// Stamps nproc, compiler, flags, seed and the workload parameters.
void StampEnvironment(const Options& options, RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
