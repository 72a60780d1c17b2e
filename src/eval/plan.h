// Rule compilation and join execution.
//
// A rule body is compiled once into a `CompiledRule`: an ordered sequence
// of steps, one per body atom, each annotated with which argument
// positions are constants, already-bound variables, or fresh variables.
// Steps with at least one bound position probe a hash index on the bound
// columns; steps with none scan.
//
// The same compiled rule is executed in different *modes* by the
// evaluators: the caller supplies, per body atom, the relation to read
// and the row range [begin, end) to consider. This is how semi-naive
// delta variants and the parallel workers' local relations reuse one
// compilation path.
//
// `JoinExecutor::Execute` is a template over the sink callable so the
// per-firing dispatch inlines; a `std::function` overload remains for
// callers that don't sit on a hot path. Probes go through
// `ColumnIndex::ProbeRange`, which hashes the bound values in place —
// the probe path performs no heap allocation.
//
// Hash constraints (the paper's `h(v(r)) = i` conjuncts) are checked as
// soon as all their variables are bound, through a ConstraintEvaluator
// supplied by the caller (the discriminating-function registry in core/).
#ifndef PDATALOG_EVAL_PLAN_H_
#define PDATALOG_EVAL_PLAN_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "datalog/ast.h"
#include "datalog/validate.h"
#include "obs/histogram.h"
#include "storage/relation.h"
#include "util/status.h"

namespace pdatalog {

// Evaluates hash constraints. Implemented by
// core/discriminating.h:DiscriminatingRegistry.
class ConstraintEvaluator {
 public:
  virtual ~ConstraintEvaluator() = default;

  // Returns the processor id assigned by discriminating function
  // `function` to the ground sequence `values[0..n)`.
  virtual int Evaluate(int function, const Value* values, int n) const = 0;

  // Whether processor `target` may process a ground instance whose
  // discriminating values are `values[0..n)`. The default is the exact
  // constraint `h(v(r)) = target`; adaptive overlays widen it so a
  // processor keeps accepting buckets that were routed to it before a
  // remap (acceptance must only ever grow during a run — shrinking it
  // would drop in-flight tuples and lose derivations).
  virtual bool Accepts(int function, const Value* values, int n,
                       int target) const {
    return Evaluate(function, values, n) == target;
  }

  // Attributes one successful firing to the ground sequence's hash
  // bucket. The executor calls this once per firing and constraint, so
  // an adaptive overlay can see where join work concentrates (routed
  // tuple counts alone cannot: a key's work is its deltas times its
  // join fan-in). No-op by default.
  virtual void ChargeFiring(int function, const Value* values,
                            int n) const {}
};

// Where each argument position of a step (or the head) gets its value.
struct PlanPos {
  enum class Kind { kConst, kBound, kFree };
  Kind kind;
  Value value = 0;  // kConst: the constant symbol id
  int var = -1;     // kBound/kFree: dense rule-local variable id
};

struct PlanStep {
  int body_index;    // index of this atom in the original rule body
  Symbol predicate;
  uint32_t index_mask;  // columns with kConst/kBound positions
  std::vector<PlanPos> positions;
  // Constraints (indices into rule.constraints) that become fully bound
  // after this step and must be checked here.
  std::vector<int> constraints_ready;
};

// A rule compiled for execution. Owns a copy of the rule.
class CompiledRule {
 public:
  // Compiles `rule`, ordering body atoms greedily by number of bound
  // positions. `preferred_first` (a body index, or -1) forces that atom
  // to be joined first — evaluators pass the delta atom here.
  // `greedy_order` = false keeps the remaining atoms in textual body
  // order (the ablation baseline; see bench_ablation).
  static StatusOr<CompiledRule> Compile(const Rule& rule,
                                        int preferred_first = -1,
                                        bool greedy_order = true);

  const Rule& rule() const { return rule_; }
  int num_vars() const { return num_vars_; }
  const std::vector<PlanStep>& steps() const { return steps_; }

  // (predicate, column mask) pairs for which indexes must exist and
  // cover all scanned rows before Execute() runs.
  const std::vector<std::pair<Symbol, uint32_t>>& required_indexes() const {
    return required_indexes_;
  }

  // Human-readable access plan (EXPLAIN output), e.g.
  //   anc(X, Y) :- par(X, Z), anc_in(Z, Y), h(Z) = 0.
  //     1. scan anc_in(Z, Y)            [check h(Z) = 0]
  //     2. probe par(X, Z) on (Z)
  //     emit anc(X, Y)
  std::string DebugString(const SymbolTable& symbols) const;

 private:
  Rule rule_;
  int num_vars_ = 0;
  std::vector<Symbol> var_names_;  // dense id -> symbol
  std::vector<PlanStep> steps_;
  std::vector<PlanPos> head_recipe_;
  // Per constraint: dense var ids of its discriminating sequence.
  std::vector<std::vector<int>> constraint_var_ids_;
  std::vector<std::pair<Symbol, uint32_t>> required_indexes_;

  template <typename Sink>
  friend class JoinRunner;
};

// One body atom's data source for a particular execution.
struct AtomInput {
  const Relation* relation = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

// Statistics of one Execute() call.
struct ExecStats {
  // Successful ground substitutions (Definition 4 "successful firings"):
  // complete bindings satisfying every body atom and constraint. Counted
  // whether or not the derived head tuple was already known.
  uint64_t firings = 0;
  // Index probes + scan rows examined; a rough work measure.
  uint64_t rows_examined = 0;
  // Batches run by the vectorized scan->probe kernel.
  uint64_t batch_probes = 0;
  // Multi-step executions that fell back to the scalar recursive join
  // (plan shape the batch kernel does not cover).
  uint64_t batch_fallbacks = 0;
};

// Reusable per-caller scratch: holds the variable binding buffer and the
// batch kernel's gather/hash buffers so repeated Execute() calls (one
// per rule variant per round) don't reallocate them. A
// default-constructed scratch works for any rule.
struct JoinScratch {
  std::vector<Value> bindings;
  // Batch kernel scratch: surviving scan row ids, their probe keys
  // (column-major, kProbeBatch stride), and the precomputed key hashes.
  std::vector<uint32_t> batch_rows;
  std::vector<Value> batch_keys;
  std::vector<uint64_t> batch_hashes;
  // Optional: records the number of surviving keys per probe batch
  // (WorkerProfile::probe_batch; null when profiling is off).
  Histogram* probe_batch = nullptr;
};

// Recursive nested-loop/index join over the compiled steps, templated
// over the sink so firings dispatch without std::function indirection.
// The sink is invoked either as sink(const Value*, int) — the raw head
// values, valid only during the call — or as sink(const Tuple&) if it
// only accepts tuples.
template <typename Sink>
class JoinRunner {
 public:
  // Rows gathered per batch by the vectorized scan->probe kernel.
  static constexpr size_t kProbeBatch = 256;

  JoinRunner(const CompiledRule& compiled, const std::vector<AtomInput>& inputs,
             const ConstraintEvaluator* constraint_eval, Sink& sink,
             ExecStats* stats, JoinScratch* scratch)
      : compiled_(compiled),
        inputs_(inputs),
        constraint_eval_(constraint_eval),
        sink_(sink),
        stats_(stats),
        scratch_(scratch),
        bindings_(scratch->bindings) {
    bindings_.resize(compiled.num_vars());
  }

  void Run() {
    // The canonical semi-naive shape — scan the delta, probe one index —
    // runs through the batch kernel; everything else recurses row at a
    // time. Single-step rules are pure scans with nothing to batch, so
    // only multi-step executions count as kernel fallbacks.
    const auto& steps = compiled_.steps_;
    if (steps.size() == 2 && steps[0].index_mask == 0 &&
        steps[1].index_mask != 0 && steps[0].positions.size() <= 32) {
      RunBatched();
      return;
    }
    if (steps.size() >= 2) ++stats_->batch_fallbacks;
    Step(0);
  }

 private:
  // Batch-at-a-time kernel for scan(step 0) -> probe(step 1) plans:
  // gather up to kProbeBatch surviving delta rows, hash all their probe
  // keys in one tight loop per key column, prefetch the index slots,
  // then probe with the precomputed hashes and materialize matches.
  // Emission order is identical to the scalar path (survivors in scan
  // order, matches in ascending row-id order).
  void RunBatched() {
    const PlanStep& scan = compiled_.steps_[0];
    const PlanStep& probe_step = compiled_.steps_[1];
    const AtomInput& scan_input = inputs_[scan.body_index];
    const AtomInput& probe_input = inputs_[probe_step.body_index];
    const Relation& probe_rel = *probe_input.relation;
    const ColumnIndex* index = probe_rel.GetIndex(probe_step.index_mask);
    assert(index != nullptr &&
           "index missing; evaluator must EnsureIndex first");
    // The index may lag behind rows appended after the evaluator froze
    // this round's scan bounds, but it must cover the probed range.
    assert(index->built_upto() >= probe_input.end);

    const ColumnStore& store = scan_input.relation->store();
    const int scan_arity = static_cast<int>(scan.positions.size());
    const int kn = std::popcount(probe_step.index_mask);

    std::vector<uint32_t>& rows = scratch_->batch_rows;
    std::vector<Value>& keys = scratch_->batch_keys;
    std::vector<uint64_t>& hashes = scratch_->batch_hashes;
    rows.resize(kProbeBatch);
    keys.resize(static_cast<size_t>(kn) * kProbeBatch);
    hashes.resize(kProbeBatch);

    const Value* cols[32];
    size_t base = scan_input.begin;
    while (base < scan_input.end) {
      // Clamp each batch to the column-chunk edge so every scan column
      // reads through one raw pointer.
      size_t run = scan_input.end - base;
      for (int c = 0; c < scan_arity; ++c) {
        size_t col_run;
        cols[c] = store.ColumnSpan(c, base, &col_run);
        run = std::min(run, col_run);
      }
      const size_t n = std::min(run, kProbeBatch);

      // Phase 1: filter the scan rows (constants, repeated variables,
      // ready constraints) and gather the survivors' probe keys
      // column-major into `keys`.
      uint32_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        ++stats_->rows_examined;
        bool ok = true;
        for (int c = 0; c < scan_arity; ++c) {
          const PlanPos& pos = scan.positions[c];
          Value v = cols[c][i];
          switch (pos.kind) {
            case PlanPos::Kind::kConst:
              if (v != pos.value) ok = false;
              break;
            case PlanPos::Kind::kBound:
              if (v != bindings_[pos.var]) ok = false;
              break;
            case PlanPos::Kind::kFree:
              bindings_[pos.var] = v;
              break;
          }
          if (!ok) break;
        }
        if (!ok) continue;
        for (int ci : scan.constraints_ready) {
          if (!CheckConstraint(ci)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        int k = 0;
        for (size_t c = 0; c < probe_step.positions.size(); ++c) {
          if (!(probe_step.index_mask & (1u << c))) continue;
          const PlanPos& pos = probe_step.positions[c];
          keys[static_cast<size_t>(k) * kProbeBatch + m] =
              pos.kind == PlanPos::Kind::kConst ? pos.value
                                                : bindings_[pos.var];
          ++k;
        }
        rows[m++] = static_cast<uint32_t>(base + i);
      }
      if (scratch_->probe_batch != nullptr) scratch_->probe_batch->Record(m);
      if (m != 0) {
        ++stats_->batch_probes;
        // Phase 2: hash all probe keys — the same mix HashProjection
        // applies, but as one tight loop per key column.
        const uint64_t seed = 0x12345678u ^ static_cast<uint64_t>(kn);
        for (uint32_t s = 0; s < m; ++s) hashes[s] = seed;
        for (int k = 0; k < kn; ++k) {
          const Value* col = keys.data() + static_cast<size_t>(k) * kProbeBatch;
          for (uint32_t s = 0; s < m; ++s) {
            hashes[s] = HashCombine(hashes[s], col[s]);
          }
        }
        // Phase 3: overlap the probes' cache misses.
        for (uint32_t s = 0; s < m; ++s) index->PrefetchHash(hashes[s]);
        // Phase 4: probe with the precomputed hashes and materialize.
        Value key_buf[32];
        for (uint32_t s = 0; s < m; ++s) {
          for (int k = 0; k < kn; ++k) {
            key_buf[k] = keys[static_cast<size_t>(k) * kProbeBatch + s];
          }
          ColumnIndex::Probe probe = index->ProbeRangeHashed(
              hashes[s], key_buf, kn, probe_input.begin, probe_input.end);
          uint32_t row_id;
          bool rebound = false;
          while (probe.Next(&row_id)) {
            if (!rebound) {
              // Restore this survivor's scan bindings (phase 1 left the
              // binding buffer at the batch's last row).
              for (int c = 0; c < scan_arity; ++c) {
                const PlanPos& pos = scan.positions[c];
                if (pos.kind == PlanPos::Kind::kFree) {
                  bindings_[pos.var] = store.cell(rows[s], c);
                }
              }
              rebound = true;
            }
            TryRow(1, probe_step, probe_rel, row_id);
          }
        }
      }
      base += n;
    }
  }

  void Step(size_t step_no) {
    if (step_no == compiled_.steps_.size()) {
      Fire();
      return;
    }
    const PlanStep& step = compiled_.steps_[step_no];
    const AtomInput& input = inputs_[step.body_index];
    const Relation& rel = *input.relation;

    if (step.index_mask != 0) {
      // Probe the index on the bound columns; the key values are hashed
      // in place (no Tuple is built).
      Value key_buf[32];
      int kn = 0;
      for (size_t c = 0; c < step.positions.size(); ++c) {
        if (!(step.index_mask & (1u << c))) continue;
        const PlanPos& pos = step.positions[c];
        key_buf[kn++] = pos.kind == PlanPos::Kind::kConst
                            ? pos.value
                            : bindings_[pos.var];
      }
      const ColumnIndex* index = rel.GetIndex(step.index_mask);
      assert(index != nullptr &&
             "index missing; evaluator must EnsureIndex first");
      // The index may lag behind rows appended after the evaluator froze
      // this round's scan bounds, but it must cover the probed range.
      assert(index->built_upto() >= input.end);
      ColumnIndex::Probe probe =
          index->ProbeRange(key_buf, kn, input.begin, input.end);
      uint32_t row_id;
      while (probe.Next(&row_id)) {
        TryRow(step_no, step, rel, row_id);
      }
    } else {
      for (size_t i = input.begin; i < input.end; ++i) {
        TryRow(step_no, step, rel, i);
      }
    }
  }

  void TryRow(size_t step_no, const PlanStep& step, const Relation& rel,
              size_t row) {
    ++stats_->rows_examined;
    // Verify non-key positions and bind fresh variables; cells are read
    // straight out of the column chunks (no row is materialized).
    for (size_t c = 0; c < step.positions.size(); ++c) {
      const PlanPos& pos = step.positions[c];
      switch (pos.kind) {
        case PlanPos::Kind::kConst:
          if (!(step.index_mask & (1u << c)) &&
              rel.cell(row, static_cast<int>(c)) != pos.value)
            return;
          break;
        case PlanPos::Kind::kBound:
          if (!(step.index_mask & (1u << c)) &&
              rel.cell(row, static_cast<int>(c)) != bindings_[pos.var])
            return;
          break;
        case PlanPos::Kind::kFree:
          bindings_[pos.var] = rel.cell(row, static_cast<int>(c));
          break;
      }
    }
    // Check constraints that just became fully bound.
    for (int ci : step.constraints_ready) {
      if (!CheckConstraint(ci)) return;
    }
    Step(step_no + 1);
  }

  bool CheckConstraint(int ci) {
    const HashConstraint& c = compiled_.rule_.constraints[ci];
    const std::vector<int>& ids = compiled_.constraint_var_ids_[ci];
    Value vals[32];
    for (size_t i = 0; i < ids.size(); ++i) vals[i] = bindings_[ids[i]];
    assert(constraint_eval_ != nullptr);
    return constraint_eval_->Accepts(c.function, vals,
                                     static_cast<int>(ids.size()), c.target);
  }

  void Fire() {
    const auto& recipe = compiled_.head_recipe_;
    Value buf[32];
    for (size_t c = 0; c < recipe.size(); ++c) {
      buf[c] = recipe[c].kind == PlanPos::Kind::kConst
                   ? recipe[c].value
                   : bindings_[recipe[c].var];
    }
    ++stats_->firings;
    // Per-bucket work accounting for adaptive overlays (no-op on the
    // plain registry); the constraint vars are still bound here.
    for (size_t ci = 0; ci < compiled_.rule_.constraints.size(); ++ci) {
      const HashConstraint& c = compiled_.rule_.constraints[ci];
      const std::vector<int>& ids = compiled_.constraint_var_ids_[ci];
      Value vals[32];
      for (size_t i = 0; i < ids.size(); ++i) vals[i] = bindings_[ids[i]];
      constraint_eval_->ChargeFiring(c.function, vals,
                                     static_cast<int>(ids.size()));
    }
    int n = static_cast<int>(recipe.size());
    if constexpr (std::is_invocable_v<Sink&, const Value*, int>) {
      sink_(static_cast<const Value*>(buf), n);
    } else {
      sink_(Tuple(buf, n));
    }
  }

  const CompiledRule& compiled_;
  const std::vector<AtomInput>& inputs_;
  const ConstraintEvaluator* constraint_eval_;
  Sink& sink_;
  ExecStats* stats_;
  JoinScratch* scratch_;
  std::vector<Value>& bindings_;
};

// Executes a compiled rule.
class JoinExecutor {
 public:
  // `inputs[i]` feeds the rule's body atom i (original body order).
  // `constraint_eval` may be null iff the rule has no constraints.
  // `sink` is called once per successful firing, either with
  // (const Value* values, int arity) — preferred, allocation-free — or
  // with the instantiated head `Tuple` if that's all it accepts. It may
  // deduplicate internally. `scratch`, when supplied, carries the
  // binding buffer across calls.
  template <typename Sink>
  static void Execute(const CompiledRule& compiled,
                      const std::vector<AtomInput>& inputs,
                      const ConstraintEvaluator* constraint_eval, Sink&& sink,
                      ExecStats* stats, JoinScratch* scratch = nullptr) {
    assert(inputs.size() == compiled.rule().body.size());
    JoinScratch local;
    JoinScratch* s = scratch != nullptr ? scratch : &local;
    JoinRunner<std::remove_reference_t<Sink>> runner(
        compiled, inputs, constraint_eval, sink, stats, s);
    runner.Run();
  }

  // Type-erased convenience for cold callers and existing tests.
  static void Execute(const CompiledRule& compiled,
                      const std::vector<AtomInput>& inputs,
                      const ConstraintEvaluator* constraint_eval,
                      const std::function<void(const Tuple&)>& sink,
                      ExecStats* stats);
};

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_PLAN_H_
