#include "eval/incremental.h"

#include <unordered_set>

#include "obs/trace.h"

namespace pdatalog {

StatusOr<IncrementalEvaluator> IncrementalEvaluator::Create(
    const Program& program, const ProgramInfo& info,
    const EvalOptions& options, Database&& db,
    const ConstraintEvaluator* constraints,
    std::vector<std::vector<const Relation*>> bound) {
  IncrementalEvaluator evaluator(&program, &info, options, constraints);

  // One binding slot per body atom; null reads the evaluator's own db.
  bound.resize(program.rules.size());
  std::unordered_set<Symbol> bound_preds;
  std::unordered_set<Symbol> tracked_preds;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    bound[r].resize(rule.body.size(), nullptr);
    for (size_t b = 0; b < rule.body.size(); ++b) {
      Symbol p = rule.body[b].predicate;
      (bound[r][b] != nullptr ? bound_preds : tracked_preds).insert(p);
    }
  }
  for (Symbol p : bound_preds) {
    if (tracked_preds.count(p) > 0 || info.IsDerived(p)) {
      return Status::InvalidArgument(
          "bound predicate '" + program.symbols->Name(p) +
          "' must be base and bound at every occurrence");
    }
  }

  // Compile with every unbound predicate delta-tracked: base atoms get
  // delta variants too, so newly added facts drive rounds exactly like
  // newly derived tuples. Bound predicates stay base.
  ProgramInfo tracked = info;
  tracked.base.clear();
  for (Symbol p : info.predicates) {
    (bound_preds.count(p) > 0 ? tracked.base : tracked.derived).insert(p);
  }
  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(program, tracked, options);
  if (!compiled.ok()) return compiled.status();
  evaluator.compiled_ = std::move(*compiled);
  evaluator.bound_ = std::move(bound);

  evaluator.db_ = std::move(db);
  for (Symbol p : info.predicates) {
    if (bound_preds.count(p) > 0) continue;
    Relation& rel = evaluator.db_.GetOrCreate(p, info.arity.at(p));
    if (tracked_preds.count(p) > 0) {
      evaluator.marks_.emplace(p, Watermark{&rel, 0, 0});
    }
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
  // Runs one rule variant into `head`. Only the delta-tracked relations
  // it probes are indexed here, so only the indexes of variants that
  // actually run are built; bound relations arrive indexed.
  auto run = [&](const CompiledRule& plan, Relation* head,
                 const std::vector<AtomInput>& inputs) {
    for (const auto& [pred, mask] : plan.required_indexes()) {
      auto it = marks_.find(pred);
      if (it != marks_.end()) it->second.relation->EnsureIndex(mask);
    }
    BatchInserter* ins = &inserters.try_emplace(head, head).first->second;
    JoinExecutor::Execute(
        plan, inputs, constraints_,
        [&](const Value* values, int n) {
          batch.tuples_inserted += ins->Push(values, n);
        },
        &exec, &scratch_);
    batch.tuples_inserted += ins->Flush();
  };

  while (true) {
    // Freeze this round's windows; anything appended since the last
    // round (new facts, received or derived tuples) becomes the delta.
    // The evaluator's first round always runs (it fires the exit rules).
    const bool opening = first_run_;
    first_run_ = false;
    bool any_delta = opening;
    for (auto& [p, mark] : marks_) {
      mark.cur_end = mark.relation->size();
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
      for (size_t b = 0; b < rule.body.size(); ++b) {
        if (const Relation* rel = bound_[r][b]) {
          inputs[b] = AtomInput{rel, 0, rel->size()};
        }
      }

      if (opening) {
        // Round 0 of a from-scratch evaluation: exit rules (no derived
        // body atom) fire their full variant over everything once.
        // Rules reading a derived predicate wait a round.
        bool exit_rule = true;
        for (size_t b = 0; b < rule.body.size(); ++b) {
          if (bound_[r][b] != nullptr) continue;
          Symbol p = rule.body[b].predicate;
          if (info_->IsDerived(p)) exit_rule = false;
          const Watermark& mark = marks_.at(p);
          inputs[b] = AtomInput{mark.relation, 0, mark.cur_end};
        }
        if (exit_rule) run(variants.full, head, inputs);
        continue;
      }

      // Each rule runs once per delta-tracked body occurrence whose
      // window is non-empty, with that occurrence reading the delta
      // window, earlier occurrences reading the pre-round prefix, and
      // later ones everything up to the round start.
      for (const auto& [delta_idx, delta_rule] : variants.deltas) {
        const Watermark& delta = marks_.at(rule.body[delta_idx].predicate);
        if (delta.old_end == delta.cur_end) continue;
        for (size_t b = 0; b < rule.body.size(); ++b) {
          if (bound_[r][b] != nullptr) continue;
          const Watermark& mark = marks_.at(rule.body[b].predicate);
          if (static_cast<int>(b) == delta_idx) {
            inputs[b] = AtomInput{mark.relation, mark.old_end, mark.cur_end};
          } else if (static_cast<int>(b) < delta_idx) {
            inputs[b] = AtomInput{mark.relation, 0, mark.old_end};
          } else {
            inputs[b] = AtomInput{mark.relation, 0, mark.cur_end};
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
  batch.batch_fallbacks = exec.batch_fallbacks;
  stats_.rounds += batch.rounds;
  stats_.firings += batch.firings;
  stats_.tuples_inserted += batch.tuples_inserted;
  stats_.rows_examined += batch.rows_examined;
  stats_.batch_fallbacks += batch.batch_fallbacks;
  return batch;
}

}  // namespace pdatalog
