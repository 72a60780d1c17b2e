#include "core/advisor.h"

#include <algorithm>

#include "core/schemes.h"
#include "util/table.h"

namespace pdatalog {

namespace {

struct Candidate {
  std::string name;
  std::string description;
  RewriteBundle bundle;
};

StatusOr<SchemeCandidate> Profile(const Candidate& candidate, Database* edb,
                                  const AdvisorOptions& options) {
  ParallelOptions popts;
  popts.use_threads = false;  // deterministic round structure
  StatusOr<ParallelResult> result =
      RunParallel(candidate.bundle, edb, popts);
  if (!result.ok()) return result.status();

  SchemeCandidate out;
  out.name = candidate.name;
  out.description = candidate.description;
  out.non_redundant = candidate.bundle.non_redundant;
  out.firings = result->total_firings;
  out.cross_messages = result->cross_tuples;
  out.communication_free = result->cross_tuples == 0;
  out.determined_sends = true;
  for (const auto& sends : candidate.bundle.sends) {
    for (const SendSpec& spec : sends) {
      if (!spec.determined) out.determined_sends = false;
    }
  }
  out.makespan = BspCost(result->worker_rounds, options.cost).makespan;

  uint64_t max_firings = 0;
  uint64_t sum = 0;
  for (const WorkerStats& w : result->workers) {
    max_firings = std::max(max_firings, w.firings);
    sum += w.firings;
  }
  double mean = static_cast<double>(sum) /
                static_cast<double>(result->workers.size());
  out.load_imbalance = mean == 0 ? 1.0 : max_firings / mean;
  return out;
}

}  // namespace

std::string AdvisorReport::ToString() const {
  TextTable table({"rank", "scheme", "makespan", "firings", "cross-msgs",
                   "imbalance", "comm-free", "nonredundant"});
  for (size_t i = 0; i < candidates.size(); ++i) {
    const SchemeCandidate& c = candidates[i];
    table.AddRow({TextTable::Cell(static_cast<int>(i + 1)), c.name,
                  TextTable::Cell(c.makespan, 0), TextTable::Cell(c.firings),
                  TextTable::Cell(c.cross_messages),
                  TextTable::Cell(c.load_imbalance, 2),
                  c.communication_free ? "yes" : "no",
                  c.non_redundant ? "yes" : "no"});
  }
  return table.ToString();
}

StatusOr<AdvisorReport> AdviseScheme(const Program& program,
                                     const ProgramInfo& info,
                                     const LinearSirup& sirup, Database* edb,
                                     const AdvisorOptions& options) {
  const int P = options.num_processors;
  const SymbolTable& symbols = *program.symbols;
  std::vector<Candidate> candidates;

  auto add = [&](std::string name, std::string description,
                 StatusOr<RewriteBundle> bundle) {
    if (bundle.ok()) {
      candidates.push_back(
          {std::move(name), std::move(description), std::move(*bundle)});
    }
  };
  auto add_linear = [&](std::string name, std::string description,
                        const StatusOr<LinearSchemeOptions>& scheme) {
    if (!scheme.ok()) return;
    add(std::move(name), std::move(description),
        RewriteLinearSirup(program, info, sirup, P, *scheme));
  };

  // 1. Theorem 3 communication-free candidate (Example 1), when the
  //    dataflow graph has a cycle.
  StatusOr<LinearSchemeOptions> free_scheme =
      CommunicationFreeScheme(sirup, P, options.seed);
  if (free_scheme.ok()) {
    add_linear("theorem3" + SequenceName(free_scheme->v_r, symbols),
               "communication-free (dataflow cycle)", free_scheme);
  }

  // 2. Hash partitioning on each single variable of the recursive atom,
  //    and on the full variable list.
  std::vector<Symbol> rec_vars;
  CollectVariables(sirup.rec_body_atom(), &rec_vars);
  std::vector<std::vector<Symbol>> hash_sequences;
  for (Symbol v : rec_vars) hash_sequences.push_back({v});
  if (rec_vars.size() > 1) hash_sequences.push_back(rec_vars);
  for (const std::vector<Symbol>& v_r : hash_sequences) {
    LinearSchemeOptions scheme = HashScheme(sirup, v_r, P, options.seed);
    if (scheme.v_e.size() != v_r.size()) continue;
    // A one-position Theorem 3 cycle hashes uniformly on the same
    // sequences: the same bundle, already a candidate.
    if (free_scheme.ok() && scheme.v_r == free_scheme->v_r &&
        scheme.v_e == free_scheme->v_e &&
        scheme.h.kind == free_scheme->h.kind) {
      continue;
    }
    add_linear("hash" + SequenceName(v_r, symbols),
               "hash partitioning (Section 3)", scheme);
  }

  // 3. Arbitrary fragmentation (Example 2), when the base relation has
  //    facts to fragment.
  const Relation* base = edb->Find(sirup.s);
  if (options.include_arbitrary_fragmentation && base != nullptr &&
      !base->empty()) {
    add_linear("fragmented", "arbitrary fragmentation + broadcast (Example 2)",
               FragmentationScheme(sirup, *edb, P, options.seed));
  }

  // 4. The Section 6 spectrum at the requested keep-fractions.
  for (double rho : options.tradeoff_rhos) {
    add("tradeoff(" + TextTable::Cell(rho, 2) + ")",
        "Section 6 spectrum, keep-fraction " + TextTable::Cell(rho, 2),
        RewriteTradeoff(program, info, sirup, P,
                        TradeoffScheme(sirup, rho, P, options.seed)));
  }

  if (candidates.empty()) {
    return Status::FailedPrecondition(
        "no parallelization candidate applies to this sirup");
  }

  AdvisorReport report;
  for (const Candidate& candidate : candidates) {
    StatusOr<SchemeCandidate> profiled = Profile(candidate, edb, options);
    if (!profiled.ok()) return profiled.status();
    report.candidates.push_back(std::move(*profiled));
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const SchemeCandidate& a, const SchemeCandidate& b) {
              if (a.makespan != b.makespan) return a.makespan < b.makespan;
              return a.name < b.name;
            });
  return report;
}

}  // namespace pdatalog
