#include "eval/incremental.h"

#include "obs/trace.h"

namespace pdatalog {

StatusOr<IncrementalEvaluator> IncrementalEvaluator::Create(
    const Program& program, const ProgramInfo& info,
    const EvalOptions& options, Database&& db) {
  IncrementalEvaluator evaluator(&program, &info, options);

  // Compile with *every* predicate delta-tracked: base atoms get delta
  // variants too, so newly added facts drive rounds exactly like newly
  // derived tuples.
  ProgramInfo all_delta = info;
  for (Symbol p : info.predicates) {
    all_delta.derived.insert(p);
  }
  all_delta.base.clear();
  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(program, all_delta, options);
  if (!compiled.ok()) return compiled.status();
  evaluator.compiled_ = std::move(*compiled);

  evaluator.db_ = std::move(db);
  for (Symbol p : info.predicates) {
    evaluator.db_.GetOrCreate(p, info.arity.at(p));
    evaluator.marks_.emplace(p, Watermark{});
  }
  return evaluator;
}

StatusOr<bool> IncrementalEvaluator::AddFact(Symbol predicate,
                                             const Tuple& tuple) {
  if (info_->IsDerived(predicate)) {
    return Status::InvalidArgument(
        "cannot add facts for derived predicate '" +
        program_->symbols->Name(predicate) + "'");
  }
  Relation* rel = db_.Find(predicate);
  if (rel == nullptr || rel->arity() != tuple.arity()) {
    return Status::InvalidArgument("unknown predicate or arity mismatch");
  }
  return rel->Insert(tuple);
}

StatusOr<EvalStats> IncrementalEvaluator::Evaluate() {
  EvalStats batch;
  ExecStats exec;

  // One BatchInserter per head relation: firings buffer and flush
  // through InsertBlock (tight hash loop + prefetched dedup probes)
  // instead of paying one dependent random load per firing. Flushed
  // after every Execute call, so every point that reads a relation's
  // size sees the same state as the unbuffered path.
  std::unordered_map<Relation*, BatchInserter> inserters;
  // Runs one rule variant into `head`. A variant with an empty input
  // window cannot fire and is skipped, so only the indexes of variants
  // that actually run are built.
  auto run = [&](const CompiledRule& plan, Relation* head,
                 const std::vector<AtomInput>& inputs) {
    for (const AtomInput& input : inputs) {
      if (input.begin == input.end) return;
    }
    for (const auto& [pred, mask] : plan.required_indexes()) {
      db_.Find(pred)->EnsureIndex(mask);
    }
    BatchInserter* ins = &inserters.try_emplace(head, head).first->second;
    JoinExecutor::Execute(
        plan, inputs, nullptr,
        [&](const Value* values, int n) {
          batch.tuples_inserted += ins->Push(values, n);
        },
        &exec, &scratch_);
    batch.tuples_inserted += ins->Flush();
  };

  while (true) {
    // Freeze this round's windows; anything appended since the last
    // round (new facts or derived tuples) becomes the delta. The
    // evaluator's first round always runs (it fires empty-body rules).
    const bool opening = first_run_;
    first_run_ = false;
    bool any_delta = opening;
    for (auto& [p, mark] : marks_) {
      mark.cur_end = db_.Find(p)->size();
      if (mark.cur_end > mark.old_end) any_delta = true;
    }
    if (!any_delta) break;

    const uint32_t round = static_cast<uint32_t>(batch.rounds++);
    if (round > 0 && options_.trace != nullptr) {
      options_.trace->Instant(TracePhase::kRound, round);
    }
    TraceScope span(options_.trace,
                    round == 0 ? TracePhase::kInit : TracePhase::kProbe,
                    round);
    for (size_t r = 0; r < program_->rules.size(); ++r) {
      const Rule& rule = program_->rules[r];
      const auto& variants = compiled_.rules()[r];
      Relation* head = db_.Find(rule.head.predicate);
      std::vector<AtomInput> inputs(rule.body.size());

      if (opening) {
        // Round 0 of a from-scratch evaluation: exit rules (no derived
        // body atom) fire their full variant over everything once.
        // Rules reading a derived predicate wait a round.
        bool exit_rule = true;
        for (size_t b = 0; b < rule.body.size(); ++b) {
          const Atom& atom = rule.body[b];
          if (info_->IsDerived(atom.predicate)) exit_rule = false;
          inputs[b] = AtomInput{db_.Find(atom.predicate), 0,
                                marks_.at(atom.predicate).cur_end};
        }
        if (exit_rule) run(variants.full, head, inputs);
        continue;
      }

      // Each rule runs once per body occurrence, with that occurrence
      // reading the delta window, earlier occurrences reading the
      // pre-round prefix, and later ones everything up to the round
      // start.
      for (const auto& [delta_idx, delta_rule] : variants.deltas) {
        for (size_t b = 0; b < rule.body.size(); ++b) {
          const Relation* rel = db_.Find(rule.body[b].predicate);
          const Watermark& mark = marks_.at(rule.body[b].predicate);
          if (static_cast<int>(b) == delta_idx) {
            inputs[b] = AtomInput{rel, mark.old_end, mark.cur_end};
          } else if (static_cast<int>(b) < delta_idx) {
            inputs[b] = AtomInput{rel, 0, mark.old_end};
          } else {
            inputs[b] = AtomInput{rel, 0, mark.cur_end};
          }
        }
        run(delta_rule, head, inputs);
      }
    }

    for (auto& [p, mark] : marks_) {
      // The opening round joined no derived atom, so a derived
      // predicate's whole prefix (preloaded rows included) stays the
      // next round's delta.
      if (opening && info_->IsDerived(p)) continue;
      mark.old_end = mark.cur_end;
    }
  }

  batch.firings = exec.firings;
  batch.rows_examined = exec.rows_examined;
  stats_.rounds += batch.rounds;
  stats_.firings += batch.firings;
  stats_.tuples_inserted += batch.tuples_inserted;
  stats_.rows_examined += batch.rows_examined;
  return batch;
}

}  // namespace pdatalog
