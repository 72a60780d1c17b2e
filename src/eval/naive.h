// Naive (Gauss-Seidel-free, full re-evaluation) bottom-up evaluation.
// Kept as a differential-testing oracle and as the baseline that makes
// semi-naive's work savings measurable (`pdatalog --mode=naive --stats`;
// NaiveTest.ReDerivesEveryRound asserts the firings gap).
#ifndef PDATALOG_EVAL_NAIVE_H_
#define PDATALOG_EVAL_NAIVE_H_

#include "datalog/analysis.h"
#include "eval/seminaive.h"
#include "storage/database.h"

namespace pdatalog {

// Evaluates `program` naively: every round applies every rule to the
// full current relations until a fixpoint is reached. Produces the same
// least model as SemiNaiveEvaluate but re-derives tuples every round.
Status NaiveEvaluate(const Program& program, const ProgramInfo& info,
                     Database* db, EvalStats* stats);

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_NAIVE_H_
