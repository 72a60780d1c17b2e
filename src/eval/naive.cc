#include "eval/naive.h"

namespace pdatalog {

Status NaiveEvaluate(const Program& program, const ProgramInfo& info,
                     Database* db, EvalStats* stats) {
  StatusOr<CompiledProgram> compiled = CompiledProgram::Compile(program, info);
  if (!compiled.ok()) return compiled.status();

  for (Symbol p : info.predicates) {
    db->GetOrCreate(p, info.arity.at(p));
  }

  ExecStats exec_stats;
  JoinScratch scratch;
  bool grew = true;
  while (grew) {
    grew = false;
    ++stats->rounds;
    for (const auto& [pred, mask] : compiled->required_indexes()) {
      db->GetOrCreate(pred, info.arity.at(pred)).EnsureIndex(mask);
    }
    // Snapshot sizes so tuples derived this round are visible only next
    // round (Jacobi iteration; simplest correct naive formulation).
    std::unordered_map<Symbol, size_t> snapshot;
    for (Symbol p : info.predicates) snapshot[p] = db->Find(p)->size();

    for (size_t r = 0; r < program.rules.size(); ++r) {
      const Rule& rule = program.rules[r];
      Relation* head_rel = db->Find(rule.head.predicate);
      std::vector<AtomInput> inputs(rule.body.size());
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Relation* rel = db->Find(rule.body[i].predicate);
        inputs[i] = AtomInput{rel, 0, snapshot.at(rule.body[i].predicate)};
      }
      JoinExecutor::Execute(compiled->rules()[r].full, inputs,
                            /*constraint_eval=*/nullptr,
                            [&](const Value* values, int n) {
                              if (head_rel->InsertView(values, n)) {
                                ++stats->tuples_inserted;
                                grew = true;
                              }
                            },
                            &exec_stats, &scratch);
    }
  }

  stats->firings += exec_stats.firings;
  stats->rows_examined += exec_stats.rows_examined;
  stats->batch_fallbacks += exec_stats.batch_fallbacks;
  return Status::Ok();
}

}  // namespace pdatalog
