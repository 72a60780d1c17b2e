#include "eval/plan.h"

#include <algorithm>
#include <cassert>

namespace pdatalog {

namespace {

// Dense variable numbering for one rule.
int VarId(std::vector<Symbol>* names, Symbol sym) {
  for (size_t i = 0; i < names->size(); ++i) {
    if ((*names)[i] == sym) return static_cast<int>(i);
  }
  names->push_back(sym);
  return static_cast<int>(names->size() - 1);
}

int FindVar(const std::vector<Symbol>& names, Symbol sym) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == sym) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

StatusOr<CompiledRule> CompiledRule::Compile(const Rule& rule,
                                             int preferred_first,
                                             bool greedy_order) {
  CompiledRule compiled;
  compiled.rule_ = rule;

  if (rule.head.arity() > 32) {
    return Status::InvalidArgument("head arity exceeds 32");
  }
  for (const Atom& atom : rule.body) {
    if (atom.arity() > 32) {
      return Status::InvalidArgument("atom arity exceeds 32");
    }
  }
  for (const HashConstraint& c : rule.constraints) {
    if (c.vars.size() > 32) {
      return Status::InvalidArgument(
          "discriminating sequence exceeds 32 variables");
    }
  }

  // Assign dense ids to all body variables in first-occurrence order.
  for (const Atom& atom : rule.body) {
    for (const Term& t : atom.args) {
      if (t.is_var()) VarId(&compiled.var_names_, t.sym);
    }
  }
  compiled.num_vars_ = static_cast<int>(compiled.var_names_.size());

  // Constraint variable ids; all must be body variables.
  for (const HashConstraint& c : rule.constraints) {
    std::vector<int> ids;
    for (Symbol v : c.vars) {
      int id = FindVar(compiled.var_names_, v);
      if (id < 0) {
        return Status::InvalidArgument(
            "constraint variable does not occur in rule body");
      }
      ids.push_back(id);
    }
    compiled.constraint_var_ids_.push_back(std::move(ids));
  }

  // Greedy join ordering: preferred atom first, then most-bound-first.
  std::vector<bool> bound(compiled.num_vars_, false);
  std::vector<bool> used(rule.body.size(), false);
  std::vector<bool> constraint_done(rule.constraints.size(), false);

  auto bound_count = [&](const Atom& atom) {
    int n = 0;
    for (const Term& t : atom.args) {
      if (t.is_const() || (t.is_var() && bound[FindVar(compiled.var_names_,
                                                       t.sym)])) {
        ++n;
      }
    }
    return n;
  };

  for (size_t step_no = 0; step_no < rule.body.size(); ++step_no) {
    int pick = -1;
    if (step_no == 0 && preferred_first >= 0) {
      pick = preferred_first;
    } else if (!greedy_order) {
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (!used[i]) {
          pick = static_cast<int>(i);
          break;
        }
      }
    } else {
      int best = -1;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (used[i]) continue;
        int score = bound_count(rule.body[i]);
        if (score > best) {
          best = score;
          pick = static_cast<int>(i);
        }
      }
    }
    assert(pick >= 0 && !used[pick]);
    used[pick] = true;

    const Atom& atom = rule.body[pick];
    PlanStep step;
    step.body_index = pick;
    step.predicate = atom.predicate;
    step.index_mask = 0;
    step.positions.resize(atom.args.size());

    for (size_t c = 0; c < atom.args.size(); ++c) {
      const Term& t = atom.args[c];
      PlanPos& pos = step.positions[c];
      if (t.is_const()) {
        pos.kind = PlanPos::Kind::kConst;
        pos.value = t.sym;
        step.index_mask |= 1u << c;
      } else {
        int id = FindVar(compiled.var_names_, t.sym);
        pos.var = id;
        if (bound[id]) {
          pos.kind = PlanPos::Kind::kBound;
          step.index_mask |= 1u << c;
        } else {
          pos.kind = PlanPos::Kind::kFree;
          bound[id] = true;  // bound by this position for later positions
        }
      }
    }
    // A variable repeated within this atom: its second occurrence was
    // classified kFree above only for the very first occurrence; any
    // repeat after the first occurrence saw bound[id]==true and became
    // kBound, but it is NOT part of the index key (its value is only
    // known after fetching the row). Remove such columns from the mask.
    {
      std::vector<bool> bound_before(compiled.num_vars_, false);
      // Recompute which vars were bound before this atom started.
      for (int v = 0; v < compiled.num_vars_; ++v) bound_before[v] = bound[v];
      for (size_t c = 0; c < atom.args.size(); ++c) {
        const Term& t = atom.args[c];
        if (t.is_var()) {
          int id = FindVar(compiled.var_names_, t.sym);
          // Undo: mark vars first bound inside this atom.
          PlanPos& pos = step.positions[c];
          if (pos.kind == PlanPos::Kind::kFree) bound_before[id] = false;
        }
      }
      for (size_t c = 0; c < atom.args.size(); ++c) {
        PlanPos& pos = step.positions[c];
        if (pos.kind == PlanPos::Kind::kBound && !bound_before[pos.var]) {
          step.index_mask &= ~(1u << c);  // bound within this atom only
        }
      }
    }

    // Constraints whose variables are now all bound are checked here.
    for (size_t ci = 0; ci < rule.constraints.size(); ++ci) {
      if (constraint_done[ci]) continue;
      bool ready = true;
      for (int id : compiled.constraint_var_ids_[ci]) {
        if (!bound[id]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        constraint_done[ci] = true;
        step.constraints_ready.push_back(static_cast<int>(ci));
      }
    }

    if (step.index_mask != 0) {
      compiled.required_indexes_.emplace_back(atom.predicate,
                                              step.index_mask);
    }
    compiled.steps_.push_back(std::move(step));
  }

  for (size_t ci = 0; ci < rule.constraints.size(); ++ci) {
    if (!constraint_done[ci]) {
      return Status::InvalidArgument(
          "hash constraint variables never bound by the body");
    }
  }

  // Head recipe.
  compiled.head_recipe_.resize(rule.head.args.size());
  for (size_t c = 0; c < rule.head.args.size(); ++c) {
    const Term& t = rule.head.args[c];
    PlanPos& pos = compiled.head_recipe_[c];
    if (t.is_const()) {
      pos.kind = PlanPos::Kind::kConst;
      pos.value = t.sym;
    } else {
      int id = FindVar(compiled.var_names_, t.sym);
      if (id < 0 || !bound[id]) {
        return Status::InvalidArgument(
            "rule is not range-restricted: head variable unbound");
      }
      pos.kind = PlanPos::Kind::kBound;
      pos.var = id;
    }
  }

  // Deduplicate required indexes.
  std::sort(compiled.required_indexes_.begin(),
            compiled.required_indexes_.end());
  compiled.required_indexes_.erase(
      std::unique(compiled.required_indexes_.begin(),
                  compiled.required_indexes_.end()),
      compiled.required_indexes_.end());

  return compiled;
}

std::string CompiledRule::DebugString(const SymbolTable& symbols) const {
  std::string out = ToString(rule_, symbols);
  out += '\n';
  for (size_t s = 0; s < steps_.size(); ++s) {
    const PlanStep& step = steps_[s];
    const Atom& atom = rule_.body[step.body_index];
    out += "  " + std::to_string(s + 1) + ". ";
    if (step.index_mask == 0) {
      out += "scan ";
      out += ToString(atom, symbols);
    } else {
      out += "probe ";
      out += ToString(atom, symbols);
      out += " on (";
      bool first = true;
      for (int c = 0; c < atom.arity(); ++c) {
        if (!(step.index_mask & (1u << c))) continue;
        if (!first) out += ", ";
        first = false;
        out += ToString(atom.args[c], symbols);
      }
      out += ")";
    }
    for (int ci : step.constraints_ready) {
      out += "  [check " + ToString(rule_.constraints[ci], symbols) + "]";
    }
    out += '\n';
  }
  out += "  emit " + ToString(rule_.head, symbols) + "\n";
  return out;
}

void JoinExecutor::Execute(const CompiledRule& compiled,
                           const std::vector<AtomInput>& inputs,
                           const ConstraintEvaluator* constraint_eval,
                           const std::function<void(const Tuple&)>& sink,
                           ExecStats* stats) {
  Execute(compiled, inputs, constraint_eval,
          [&sink](const Tuple& t) { sink(t); }, stats);
}

}  // namespace pdatalog
