#include "eval/seminaive.h"

#include <algorithm>

#include "eval/incremental.h"
#include "eval/stratify.h"

namespace pdatalog {

StatusOr<CompiledProgram> CompiledProgram::Compile(const Program& program,
                                                   const ProgramInfo& info,
                                                   const EvalOptions& options) {
  CompiledProgram out;
  for (const Rule& rule : program.rules) {
    RuleVariants variants{CompiledRule{}, {}};
    StatusOr<CompiledRule> full =
        CompiledRule::Compile(rule, -1, options.greedy_join_order);
    if (!full.ok()) return full.status();
    variants.full = std::move(*full);

    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!info.IsDerived(rule.body[i].predicate)) continue;
      StatusOr<CompiledRule> delta = CompiledRule::Compile(
          rule, static_cast<int>(i), options.greedy_join_order);
      if (!delta.ok()) return delta.status();
      variants.deltas.emplace_back(static_cast<int>(i), std::move(*delta));
    }

    for (const auto& req : variants.full.required_indexes()) {
      out.required_indexes_.push_back(req);
    }
    for (const auto& [_, compiled] : variants.deltas) {
      for (const auto& req : compiled.required_indexes()) {
        out.required_indexes_.push_back(req);
      }
    }
    out.rules_.push_back(std::move(variants));
  }
  std::sort(out.required_indexes_.begin(), out.required_indexes_.end());
  out.required_indexes_.erase(
      std::unique(out.required_indexes_.begin(), out.required_indexes_.end()),
      out.required_indexes_.end());
  return out;
}

namespace {

// One from-scratch evaluation: an IncrementalEvaluator adopts `db` (its
// relations move in and back out; no row is copied) and runs one batch.
Status EvaluateBatch(const Program& program, const ProgramInfo& info,
                     Database* db, EvalStats* stats,
                     const EvalOptions& options) {
  StatusOr<IncrementalEvaluator> evaluator =
      IncrementalEvaluator::Create(program, info, options, std::move(*db));
  if (!evaluator.ok()) return evaluator.status();
  StatusOr<EvalStats> batch = evaluator->Evaluate();
  *db = evaluator->ReleaseDatabase();
  if (!batch.ok()) return batch.status();
  stats->rounds += batch->rounds;
  stats->firings += batch->firings;
  stats->tuples_inserted += batch->tuples_inserted;
  stats->rows_examined += batch->rows_examined;
  stats->batch_fallbacks += batch->batch_fallbacks;
  return Status::Ok();
}

}  // namespace

Status SemiNaiveEvaluate(const Program& program, const ProgramInfo& info,
                         Database* db, EvalStats* stats,
                         const EvalOptions& options) {
  if (!options.stratified) {
    return EvaluateBatch(program, info, db, stats, options);
  }
  // Evaluate the condensation bottom-up: each stratum's rules form a
  // sub-program in which lower-strata predicates classify as base
  // (their relations in `db` are already complete and frozen).
  Stratification strat = Stratify(program, info);
  for (Symbol p : info.predicates) {
    db->GetOrCreate(p, info.arity.at(p));
  }
  for (size_t s = 0; s < strat.strata.size(); ++s) {
    Program sub;
    sub.symbols = program.symbols;
    for (int r : strat.rules_by_stratum[s]) {
      sub.rules.push_back(program.rules[r]);
    }
    ProgramInfo sub_info;
    PDATALOG_RETURN_IF_ERROR(Validate(sub, &sub_info));
    PDATALOG_RETURN_IF_ERROR(
        EvaluateBatch(sub, sub_info, db, stats, options));
  }
  return Status::Ok();
}

}  // namespace pdatalog
