// Sequential semi-naive bottom-up evaluation (Section 2/3 of the paper:
// the baseline whose set of ground substitutions the parallel schemes
// partition).
#ifndef PDATALOG_EVAL_SEMINAIVE_H_
#define PDATALOG_EVAL_SEMINAIVE_H_

#include <vector>

#include "datalog/analysis.h"
#include "eval/plan.h"
#include "storage/database.h"

namespace pdatalog {

class TraceRing;  // obs/trace.h

// Evaluator knobs. Defaults reproduce the paper's setting; the
// alternatives exist for the ablation benches.
struct EvalOptions {
  // false: join body atoms in textual order instead of most-bound-first.
  bool greedy_join_order = true;
  // true: evaluate stratum by stratum (SCCs of the dependency graph in
  // topological order; see eval/stratify.h) so rules never rerun while
  // predicates they depend on, but do not feed, are still growing.
  // Read by SemiNaiveEvaluate; IncrementalEvaluator ignores it.
  bool stratified = false;
  // Observability: when set, the evaluator records init/probe phase
  // spans and round instants on `ring`. The ring must belong to the
  // calling thread; null (the default) disables tracing.
  TraceRing* trace = nullptr;
};

// Aggregate statistics of one evaluation.
struct EvalStats {
  int rounds = 0;
  // Successful ground substitutions across all rules (Definition 4).
  uint64_t firings = 0;
  // Distinct tuples added to derived relations.
  uint64_t tuples_inserted = 0;
  uint64_t rows_examined = 0;
  // Multi-step joins the batch kernel could not cover (ExecStats).
  uint64_t batch_fallbacks = 0;
};

// A program compiled for (semi-)naive evaluation: for every rule, a
// full variant plus one delta variant per derived body atom.
class CompiledProgram {
 public:
  struct RuleVariants {
    CompiledRule full;
    // (body index of the delta atom, compiled variant with that atom
    // joined first).
    std::vector<std::pair<int, CompiledRule>> deltas;
  };

  static StatusOr<CompiledProgram> Compile(const Program& program,
                                           const ProgramInfo& info,
                                           const EvalOptions& options = {});

  const std::vector<RuleVariants>& rules() const { return rules_; }
  // Union of all variants' required (predicate, mask) indexes.
  const std::vector<std::pair<Symbol, uint32_t>>& required_indexes() const {
    return required_indexes_;
  }

 private:
  std::vector<RuleVariants> rules_;
  std::vector<std::pair<Symbol, uint32_t>> required_indexes_;
};

// Evaluates `program` over the facts already loaded in `db`, writing
// derived relations into `db`. This is the first batch of an
// IncrementalEvaluator (eval/incremental.h) that adopts `db` for the
// call: the loaded facts are the first delta. With
// `options.stratified`, one such batch runs per stratum.
Status SemiNaiveEvaluate(const Program& program, const ProgramInfo& info,
                         Database* db, EvalStats* stats,
                         const EvalOptions& options = {});

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_SEMINAIVE_H_
