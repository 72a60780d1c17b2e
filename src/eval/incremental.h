// The semi-naive evaluator: one-shot, incremental, and the loop each
// parallel worker runs over its rewritten program Q_i.
//
// Positive Datalog is monotone: adding base facts can only add derived
// tuples, so a materialized fixpoint resumes with the new facts as
// deltas instead of recomputing from scratch. The evaluator tracks
// every predicate a body reads from its own database (base ones
// included): after AddFact(s), Evaluate() runs delta variants for each
// such body occurrence and reaches the same fixpoint a from-scratch
// evaluation over the union would. A from-scratch evaluation is just
// the first batch: SemiNaiveEvaluate (eval/seminaive.h) adopts the
// caller's database and calls Evaluate() once.
//
// A parallel worker (core/worker.h) runs its Q_i on one evaluator. Its
// t_in relations are the delta-tracked inputs: the worker appends
// received blocks to them between Evaluate() calls, and each call is
// one processing round over what arrived. Its t_out relations are the
// heads, whose new suffixes the worker routes after each call. Every
// base atom occurrence is *bound* to a read-only relation chosen per
// occurrence: the worker's fragment b_k^i or the shared replicated EDB
// relation (Example 1 reads `par` both ways, one per rule). Bound
// occurrences are base: no watermark, no delta variant, read whole in
// every variant, and the evaluator never indexes or mutates them — the
// owner builds the indexes compiled().required_indexes() names before
// the first Evaluate().
#ifndef PDATALOG_EVAL_INCREMENTAL_H_
#define PDATALOG_EVAL_INCREMENTAL_H_

#include <unordered_map>

#include "eval/seminaive.h"

namespace pdatalog {

class IncrementalEvaluator {
 public:
  // `program`/`info` must outlive the evaluator. The evaluator adopts
  // `db` (empty by default; rows are moved, not copied): facts already
  // in it are part of the first Evaluate()'s delta, exactly like facts
  // added with AddFact. On error `db` is left untouched.
  //
  // The parallel worker also passes `constraints`, which checks the
  // rules' h(v(r)) = i conjuncts, and `bound`: bound[r][b], when
  // present and non-null, is the relation body atom b of rule r reads.
  // A bound predicate must be base and bound at every occurrence.
  static StatusOr<IncrementalEvaluator> Create(
      const Program& program, const ProgramInfo& info,
      const EvalOptions& options = {}, Database&& db = Database(),
      const ConstraintEvaluator* constraints = nullptr,
      std::vector<std::vector<const Relation*>> bound = {});

  // Inserts one base tuple (deduplicated). Returns true if new.
  // It is an error to add facts for derived predicates.
  StatusOr<bool> AddFact(Symbol predicate, const Tuple& tuple);

  // Runs semi-naive rounds until the fixpoint incorporates everything
  // added since the last Evaluate(). A round runs while some body
  // occurrence has a non-empty delta window, and within it a delta
  // variant runs only over a non-empty window. The first call opens
  // with a round that fires the exit rules over everything. Cumulative
  // stats are kept in stats(); the call returns this batch's only.
  StatusOr<EvalStats> Evaluate();

  const Database& db() const { return db_; }
  const Relation* Find(Symbol predicate) const { return db_.Find(predicate); }
  const EvalStats& stats() const { return stats_; }
  const CompiledProgram& compiled() const { return compiled_; }

  // Records the surviving keys of every batch-kernel probe batch into
  // `histogram` (null, the default, records nothing).
  void set_probe_batch(Histogram* histogram) {
    scratch_.probe_batch = histogram;
  }

  // Moves the database out; the evaluator must not be used afterwards.
  Database ReleaseDatabase() { return std::move(db_); }

 private:
  IncrementalEvaluator(const Program* program, const ProgramInfo* info,
                       const EvalOptions& options,
                       const ConstraintEvaluator* constraints)
      : program_(program),
        info_(info),
        options_(options),
        constraints_(constraints) {}

  const Program* program_;
  const ProgramInfo* info_;
  EvalOptions options_;
  const ConstraintEvaluator* constraints_;
  CompiledProgram compiled_;
  Database db_;
  // bound_[r][b]: the relation body atom b of rule r is bound to, or
  // null when it reads db_.
  std::vector<std::vector<const Relation*>> bound_;
  // Semi-naive watermarks for every predicate an unbound body
  // occurrence reads.
  struct Watermark {
    Relation* relation = nullptr;
    size_t old_end = 0;
    size_t cur_end = 0;
  };
  std::unordered_map<Symbol, Watermark> marks_;
  JoinScratch scratch_;
  EvalStats stats_;
  bool first_run_ = true;
};

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_INCREMENTAL_H_
