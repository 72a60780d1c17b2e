// The sequential semi-naive evaluator, one-shot and incremental.
//
// Positive Datalog is monotone: adding base facts can only add derived
// tuples, so a materialized fixpoint resumes with the new facts as
// deltas instead of recomputing from scratch. The evaluator tracks
// *every* predicate (base ones included): after AddFact(s), Evaluate()
// runs delta variants for each body occurrence — including base
// occurrences — and reaches the same fixpoint a from-scratch evaluation
// over the union would. A from-scratch evaluation is just the first
// batch: SemiNaiveEvaluate (eval/seminaive.h) adopts the caller's
// database and calls Evaluate() once.
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
  static StatusOr<IncrementalEvaluator> Create(const Program& program,
                                               const ProgramInfo& info,
                                               const EvalOptions& options = {},
                                               Database&& db = Database());

  // Inserts one base tuple (deduplicated). Returns true if new.
  // It is an error to add facts for derived predicates.
  StatusOr<bool> AddFact(Symbol predicate, const Tuple& tuple);

  // Runs semi-naive rounds until the fixpoint incorporates everything
  // added since the last Evaluate(). Cumulative stats are kept in
  // stats(); the call returns the stats of this round batch only.
  StatusOr<EvalStats> Evaluate();

  const Database& db() const { return db_; }
  const Relation* Find(Symbol predicate) const { return db_.Find(predicate); }
  const EvalStats& stats() const { return stats_; }

  // Moves the database out; the evaluator must not be used afterwards.
  Database ReleaseDatabase() { return std::move(db_); }

 private:
  IncrementalEvaluator(const Program* program, const ProgramInfo* info,
                       const EvalOptions& options)
      : program_(program), info_(info), options_(options) {}

  const Program* program_;
  const ProgramInfo* info_;
  EvalOptions options_;
  CompiledProgram compiled_;
  Database db_;
  // Semi-naive watermarks for every predicate (base and derived).
  struct Watermark {
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
