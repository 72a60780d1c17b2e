#include "core/engine.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "core/partition.h"
#include "eval/stratify.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pdatalog {

double ParallelResult::ModeledMakespan(double cpu_cost,
                                       double net_cost) const {
  double makespan = 0;
  for (size_t j = 0; j < workers.size(); ++j) {
    uint64_t recv_cross = 0;
    for (size_t i = 0; i < workers.size(); ++i) {
      if (i != j) recv_cross += channel_matrix[i][j];
    }
    double t = static_cast<double>(workers[j].firings) * cpu_cost +
               static_cast<double>(recv_cross) * net_cost;
    makespan = std::max(makespan, t);
  }
  return makespan;
}

namespace {

// Best-effort static range check of the bundle's functions.
Status ValidateFunctions(const RewriteBundle& bundle) {
  for (int f = 0; f < bundle.registry->size(); ++f) {
    const DiscriminatingFunction& fn = bundle.registry->function(f);
    switch (fn.kind) {
      case DiscriminatingFunction::Kind::kConstant:
        if (fn.constant < 0 || fn.constant >= bundle.num_processors) {
          return Status::OutOfRange(
              "constant discriminating function value " +
              std::to_string(fn.constant) + " outside processor set");
        }
        break;
      case DiscriminatingFunction::Kind::kLinear: {
        for (int v : LinearAchievableValues(fn.coeffs)) {
          int mapped = v;
          if (!fn.remap.empty()) {
            auto it = fn.remap.find(v);
            if (it == fn.remap.end()) {
              return Status::OutOfRange(
                  "linear function remap misses achievable value " +
                  std::to_string(v));
            }
            mapped = it->second;
          }
          if (mapped < 0 || mapped >= bundle.num_processors) {
            return Status::OutOfRange(
                "linear discriminating function reaches processor " +
                std::to_string(mapped) + " outside [0, " +
                std::to_string(bundle.num_processors) +
                "); use WithDenseRemap and a matching processor count");
          }
        }
        break;
      }
      default: {
        if (fn.num_processors > bundle.num_processors) {
          return Status::OutOfRange(
              "discriminating function range exceeds processor count");
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status ValidateFaultSpec(const ParallelOptions& options) {
  const FaultSpec& f = options.faults;
  const double probs[] = {f.drop, f.duplicate, f.reorder, f.corrupt, f.delay};
  for (double p : probs) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(
          "fault probabilities must lie in [0, 1]");
    }
  }
  if (f.total() > 1.0) {
    return Status::InvalidArgument(
        "fault probabilities must sum to at most 1");
  }
  if (f.delay > 0.0 && f.delay_polls < 1) {
    return Status::InvalidArgument("fault delay_polls must be >= 1");
  }
  if (f.corrupt > 0.0 && !options.serialize_messages) {
    // Shared-memory channels move block objects, so there are no wire
    // bytes to corrupt; refuse rather than silently not injecting.
    return Status::InvalidArgument(
        "corrupt faults require serialize_messages (there are no wire "
        "bytes to corrupt on shared-memory channels)");
  }
  if (options.block_tuples < 1 ||
      static_cast<uint32_t>(options.block_tuples) > kMaxBlockTuples) {
    return Status::InvalidArgument(
        "block_tuples must be in [1, " + std::to_string(kMaxBlockTuples) +
        "]");
  }
  return Status::Ok();
}

// Folds one worker's stats into the run's metrics registry, both under
// the worker's own prefix and into the run-level totals the scalar
// ParallelResult fields are projected from.
void AbsorbWorkerStats(int i, const WorkerStats& w, MetricsRegistry* m) {
  const std::string prefix = "worker." + std::to_string(i) + ".";
  m->AddCounter(prefix + "rounds", static_cast<uint64_t>(w.rounds));
  m->AddCounter(prefix + "firings", w.firings);
  m->AddCounter(prefix + "out_inserted", w.out_inserted);
  m->AddCounter(prefix + "in_inserted", w.in_inserted);
  m->AddCounter(prefix + "received", w.received);
  m->AddCounter(prefix + "sent_cross", w.sent_cross);
  m->AddCounter(prefix + "sent_self", w.sent_self);
  m->AddCounter(prefix + "broadcasts", w.broadcasts);
  m->AddCounter(prefix + "frames", w.frames);
  m->AddCounter(prefix + "rows_examined", w.rows_examined);
  m->AddCounter(prefix + "batch_fallbacks", w.batch_fallbacks);
  m->AddCounter("run.firings", w.firings);
  m->AddCounter("run.cross_tuples", w.sent_cross);
  m->AddCounter("run.self_tuples", w.sent_self);
  // Scalar-join executions the batch kernel could not cover; a nonzero
  // count under --profile flags plans degenerating off the fast path.
  m->AddCounter("eval.batch_fallbacks", w.batch_fallbacks);
}

void AbsorbFaultCounters(const FaultCounters& f, MetricsRegistry* m) {
  m->AddCounter("faults.dropped", f.dropped);
  m->AddCounter("faults.duplicated", f.duplicated);
  m->AddCounter("faults.reordered", f.reordered);
  m->AddCounter("faults.corrupted", f.corrupted);
  m->AddCounter("faults.delayed", f.delayed);
  m->AddCounter("faults.retransmitted", f.retransmitted);
  m->AddCounter("faults.duplicates_discarded", f.duplicates_discarded);
  m->AddCounter("faults.corrupt_discarded", f.corrupt_discarded);
}

// Validates the rebalance knobs and picks the function the coordinator
// manages: the most-used determined kUniformHash/kSymmetricHash send
// function. Only hash kinds carry the bucket structure the overlay
// needs; a bundle routing exclusively through other kinds (linear,
// table lookup, keep-or-hash) cannot be rebalanced.
StatusOr<int> ResolveRebalanceFunction(const RewriteBundle& bundle,
                                       const RebalanceOptions& opts) {
  if (opts.skew_threshold < 1.0) {
    return Status::InvalidArgument(
        "rebalance skew threshold must be >= 1 (max/mean load is never "
        "below 1)");
  }
  if (opts.buckets_per_processor < 1 ||
      opts.buckets_per_processor > (1u << 16)) {
    return Status::InvalidArgument(
        "rebalance buckets_per_processor must be in [1, 65536]");
  }
  for (const BaseOccurrence& occ : bundle.base_occurrences) {
    if (occ.access == BaseOccurrence::Access::kFragment) {
      return Status::FailedPrecondition(
          "rebalancing requires replicated base relations: a fragmented "
          "base cannot follow a moved bucket, so the reassigned worker "
          "would join against a missing fragment (rebuild the bundle "
          "with fragment_bases = false)");
    }
  }
  std::unordered_map<int, int> uses;
  for (const auto& sends : bundle.sends) {
    for (const SendSpec& spec : sends) {
      if (!spec.determined) continue;
      DiscriminatingFunction::Kind kind =
          bundle.registry->function(spec.function).kind;
      if (kind == DiscriminatingFunction::Kind::kUniformHash ||
          kind == DiscriminatingFunction::Kind::kSymmetricHash) {
        ++uses[spec.function];
      }
    }
  }
  int best = -1;
  int best_uses = 0;
  for (const auto& [fn, n] : uses) {
    if (n > best_uses || (n == best_uses && fn < best)) {
      best = fn;
      best_uses = n;
    }
  }
  if (best < 0) {
    return Status::FailedPrecondition(
        "rebalancing requires a determined uniform- or symmetric-hash "
        "send function; this bundle has none");
  }
  return best;
}

// Re-derives the run-level scalar fields from the registry so the text
// report and a metrics JSON export always agree (single source of
// truth).
void ProjectScalarsFromMetrics(ParallelResult* result) {
  const MetricsRegistry& m = result->metrics;
  result->total_firings = m.counter("run.firings");
  result->cross_tuples = m.counter("run.cross_tuples");
  result->self_tuples = m.counter("run.self_tuples");
  result->cross_bytes = m.counter("run.cross_bytes");
  result->cross_frames = m.counter("run.cross_frames");
  result->out_tuples_total = m.counter("run.out_tuples_total");
  result->pooling_messages = m.counter("run.pooling_messages");
  result->pooling_bytes = m.counter("run.pooling_bytes");
  result->pooled_tuples = m.counter("run.pooled_tuples");
}

// True when every processor's sending rules route every row of `p`'s
// t_out to at least one processor: each processor has a spec for `p`
// whose pattern is all distinct variables, so the spec matches any
// tuple. A constant or a repeated variable in the pattern lets some
// rows match no spec and stay in t_out only.
bool SendsCoverEveryRow(const RewriteBundle& bundle, Symbol p) {
  auto matches_all = [p](const SendSpec& spec) {
    if (spec.predicate != p) return false;
    std::unordered_set<Symbol> vars;
    for (const Term& term : spec.pattern.args) {
      if (!term.is_var() || !vars.insert(term.sym).second) return false;
    }
    return true;
  };
  return std::all_of(bundle.sends.begin(), bundle.sends.end(),
                     [&](const std::vector<SendSpec>& sends) {
                       return std::any_of(sends.begin(), sends.end(),
                                          matches_all);
                     });
}

}  // namespace

StatusOr<ParallelResult> RunParallel(const RewriteBundle& bundle,
                                     Database* edb,
                                     const ParallelOptions& options) {
  if (bundle.num_processors < 1 ||
      bundle.per_processor.size() !=
          static_cast<size_t>(bundle.num_processors)) {
    return Status::InvalidArgument("malformed rewrite bundle");
  }
  PDATALOG_RETURN_IF_ERROR(ValidateFunctions(bundle));
  PDATALOG_RETURN_IF_ERROR(ValidateFaultSpec(options));
  if (options.tracer != nullptr &&
      options.tracer->num_workers() < bundle.num_processors) {
    return Status::InvalidArgument(
        "tracer sized for " +
        std::to_string(options.tracer->num_workers()) +
        " workers but the bundle has " +
        std::to_string(bundle.num_processors) + " processors");
  }

  // Materialize every base relation so shared reads have a target.
  for (const auto& [pred, arity] : bundle.arity) {
    bool is_derived =
        std::find(bundle.derived.begin(), bundle.derived.end(), pred) !=
        bundle.derived.end();
    if (!is_derived) edb->GetOrCreate(pred, arity);
  }

  std::unique_ptr<RebalanceCoordinator> rebalance;
  if (options.rebalance.enabled()) {
    StatusOr<int> managed =
        ResolveRebalanceFunction(bundle, options.rebalance);
    if (!managed.ok()) return managed.status();
    rebalance = std::make_unique<RebalanceCoordinator>(
        bundle.registry.get(), *managed, bundle.num_processors,
        options.rebalance);
  }

  StatusOr<PartitionResult> partition = PartitionBases(bundle, *edb);
  if (!partition.ok()) return partition.status();

  CommNetwork network(bundle.num_processors);
  TerminationDetector detector(bundle.num_processors);
  const bool faults_on = options.faults.any();
  if (faults_on) network.InstallFaults(options.faults);
  if (options.retransmit) network.EnableRetransmit();
  if (faults_on && !options.retransmit) {
    // Without retransmission a lost or duplicated message would
    // livelock the detector (counters never balance); loss detection
    // turns that state into a reported failure. It is unsound under
    // retransmission — a pending resend would be declared lost.
    detector.EnableLossDetection(&network);
  }

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(bundle.num_processors);
  for (int i = 0; i < bundle.num_processors; ++i) {
    StatusOr<std::unique_ptr<Worker>> worker =
        Worker::Create(&bundle, i, edb, std::move(partition->fragments[i]),
                       &network, &detector, rebalance.get());
    if (!worker.ok()) return worker.status();
    (*worker)->set_serialize_messages(options.serialize_messages);
    (*worker)->set_retransmit(options.retransmit);
    (*worker)->set_block_tuples(options.block_tuples);
    if (options.tracer != nullptr) {
      (*worker)->set_trace(options.tracer->ring(i));
    }
    workers.push_back(std::move(*worker));
  }

  if (options.tracer != nullptr) {
    // Channel (i, j) is drained on worker j's thread, so its receive-
    // side discard instants land on ring j (single-writer invariant).
    // Cross channels additionally emit flow instants: sends on ring i
    // (the sending worker's thread holds the channel lock), deliveries
    // on ring j — the exporter and analyzer pair them by (i, j, frame
    // sequence). Self-channels carry no communication, so no flows.
    for (int i = 0; i < bundle.num_processors; ++i) {
      for (int j = 0; j < bundle.num_processors; ++j) {
        network.channel(i, j).set_receive_trace(options.tracer->ring(j));
        if (i != j) {
          network.channel(i, j).set_flow_trace(
              i, j, options.tracer->ring(i), options.tracer->ring(j));
        }
      }
    }
  }

  // Pre-build every index the workers will probe on shared (replicated)
  // EDB relations: they are read concurrently and must not be mutated
  // during the run.
  for (const auto& worker : workers) {
    for (const auto& [pred, mask] : worker->compiled().required_indexes()) {
      Relation* rel = edb->Find(pred);
      if (rel != nullptr) rel->EnsureIndex(mask);
    }
  }

  Stopwatch watch;
  if (options.use_threads) {
    std::vector<Status> worker_status(workers.size());
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (size_t i = 0; i < workers.size(); ++i) {
      Worker* worker = workers[i].get();
      Status* slot = &worker_status[i];
      threads.emplace_back([worker, slot] { *slot = worker->RunLoop(); });
    }
    for (std::thread& t : threads) t.join();
    // The detector's status is the first failure (a failing worker
    // aborts the run for everyone); individual loop statuses are
    // checked too in case a loop exited before publishing.
    PDATALOG_RETURN_IF_ERROR(detector.run_status());
    for (const Status& st : worker_status) PDATALOG_RETURN_IF_ERROR(st);
  } else {
    // Deterministic round-robin schedule.
    for (auto& worker : workers) {
      PDATALOG_RETURN_IF_ERROR(worker->Init());
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& worker : workers) {
        StatusOr<bool> stepped = worker->Step();
        if (!stepped.ok()) return stepped.status();
        if (*stepped) progress = true;
      }
      if (!progress && options.retransmit) {
        // Quiescent but possibly short a dropped frame: re-send every
        // unacknowledged copy, then keep stepping if anything went out.
        size_t resent = 0;
        for (auto& worker : workers) resent += worker->RetransmitUnacked();
        if (resent > 0) progress = true;
      }
      if (!progress && network.AnyPending()) {
        // Delayed frames mature on future drain polls; keep stepping.
        progress = true;
      }
    }
    if (faults_on && !options.retransmit) {
      // The round-robin schedule quiesces by construction, so loss
      // shows up as a final send/receive imbalance rather than a
      // livelock; check it explicitly.
      PDATALOG_RETURN_IF_ERROR(detector.CheckCounterBalance());
    }
  }

  ParallelResult result;
  result.wall_seconds = watch.ElapsedSeconds();
  result.channel_matrix = network.SentMatrix();
  result.bytes_matrix = network.BytesMatrix();
  result.frames_matrix = network.FramesMatrix();
  result.faults = network.AggregateFaultCounters();
  MetricsRegistry& m = result.metrics;
  for (int i = 0; i < bundle.num_processors; ++i) {
    for (int j = 0; j < bundle.num_processors; ++j) {
      if (i != j) {
        m.AddCounter("run.cross_bytes", result.bytes_matrix[i][j]);
        m.AddCounter("run.cross_frames", result.frames_matrix[i][j]);
      }
    }
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    result.workers.push_back(workers[i]->stats());
    result.worker_rounds.push_back(workers[i]->round_logs());
    AbsorbWorkerStats(static_cast<int>(i), workers[i]->stats(), &m);
  }
  AbsorbFaultCounters(result.faults, &m);
  if (rebalance != nullptr) {
    result.rebalance_log = rebalance->TakeLog();
    m.AddCounter("rebalance.moves", rebalance->moves());
    m.AddCounter("rebalance.replications", rebalance->replications());
    m.AddCounter("rebalance.rounds", rebalance->epochs());
    m.AddCounter("rebalance.windows", rebalance->windows());
  }
  if (options.tracer != nullptr) {
    // Fold every worker's single-writer histograms into the registry;
    // stratified runs then merge these bucket-wise across strata.
    auto fold = [&m](const char* name, const Histogram& h) {
      if (!h.empty()) m.MergeHistogram(name, h);
    };
    for (const auto& worker : workers) {
      const WorkerProfile& p = worker->profile();
      fold("hist.probe_ns", p.probe_ns);
      fold("hist.insert_ns", p.insert_ns);
      fold("hist.drain_ns", p.drain_ns);
      fold("hist.flush_ns", p.flush_ns);
      fold("hist.idle_ns", p.idle_ns);
      fold("hist.block_tuples", p.block_tuples);
      fold("hist.queue_frames_at_drain", p.queue_frames);
      fold("hist.probe_batch", p.probe_batch);
      fold("hist.insert_tuples", p.insert_tuples);
    }
  }

  // Final pooling (Section 3, step 5). Collector is processor 0: every
  // other processor ships the relation it pools from across the network.
  // run.pooling_bytes models that shipment as one frame per tuple
  // (6-byte header, u32 per value, u32 checksum); no channel moves these
  // bytes.
  //
  // Source per predicate: when the sending rules route every t_out row
  // somewhere (SendsCoverEveryRow), the receivers' t_in relations hold
  // the whole fixpoint, already deduplicated on ingest; under a
  // determined send they partition it. Those are pooled whenever they
  // are no larger than the t_out relations (a broadcast puts up to P
  // copies of a tuple into the t_ins). Otherwise, and for predicates no
  // rule consumes, the t_outs are pooled. Either way one deduplicating
  // merge runs, so overlapping sources stay correct.
  auto pooling_frame_bytes = [](int arity) {
    return 6 + 4 * static_cast<uint64_t>(arity) + 4;
  };
  {
    TraceScope pool_span(
        options.tracer != nullptr ? options.tracer->engine_ring() : nullptr,
        TracePhase::kPool);
    std::vector<const Relation*> outs(workers.size());
    std::vector<const Relation*> ins(workers.size());
    for (Symbol p : bundle.derived) {
      const int arity = bundle.arity.at(p);
      uint64_t out_total = 0;
      uint64_t in_total = 0;
      for (size_t w = 0; w < workers.size(); ++w) {
        outs[w] = &workers[w]->OutputRelation(p);
        ins[w] = workers[w]->local_db().Find(bundle.in_name.at(p));
        out_total += outs[w]->size();
        in_total += ins[w]->size();
      }
      m.AddCounter("run.out_tuples_total", out_total);
      const std::vector<const Relation*>& sources =
          in_total <= out_total && SendsCoverEveryRow(bundle, p) ? ins : outs;
      for (size_t w = 1; w < workers.size(); ++w) {
        m.AddCounter("run.pooling_messages", sources[w]->size());
        m.AddCounter("run.pooling_bytes",
                     sources[w]->size() * pooling_frame_bytes(arity));
      }
      // One presized bulk merge; first occurrences in worker order.
      Relation& pooled = result.output.GetOrCreate(p, arity);
      pooled.InsertAll(sources);
      m.AddCounter("run.pooled_tuples", pooled.size());
    }
  }
  m.SetGauge("run.wall_seconds", result.wall_seconds);
  ProjectScalarsFromMetrics(&result);
  return result;
}

StatusOr<ParallelResult> RunParallelStratified(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<GeneralRuleSpec>& rule_specs, Database* edb,
    const ParallelOptions& options) {
  if (rule_specs.size() != program.rules.size()) {
    return Status::InvalidArgument(
        "RunParallelStratified requires one GeneralRuleSpec per rule");
  }
  Stratification strat = Stratify(program, info);

  ParallelResult total;
  Stopwatch watch;
  total.workers.resize(num_processors);
  total.worker_rounds.resize(num_processors);
  total.channel_matrix.assign(num_processors,
                              std::vector<uint64_t>(num_processors, 0));
  total.bytes_matrix.assign(num_processors,
                            std::vector<uint64_t>(num_processors, 0));
  total.frames_matrix.assign(num_processors,
                             std::vector<uint64_t>(num_processors, 0));

  for (size_t s = 0; s < strat.strata.size(); ++s) {
    Program sub;
    sub.symbols = program.symbols;
    std::vector<GeneralRuleSpec> sub_specs;
    for (int r : strat.rules_by_stratum[s]) {
      sub.rules.push_back(program.rules[r]);
      sub_specs.push_back(rule_specs[r]);
    }
    ProgramInfo sub_info;
    PDATALOG_RETURN_IF_ERROR(Validate(sub, &sub_info));
    StatusOr<RewriteBundle> bundle =
        RewriteGeneral(sub, sub_info, num_processors, sub_specs);
    if (!bundle.ok()) return bundle.status();

    StatusOr<ParallelResult> result = RunParallel(*bundle, edb, options);
    if (!result.ok()) return result.status();

    // Pooled outputs of this stratum feed later strata as base inputs
    // (copied: edb keeps them), then move into the total. Strata own
    // disjoint predicates, so the move cannot collide.
    for (Symbol p : strat.strata[s]) {
      const Relation* pooled = result->output.Find(p);
      edb->GetOrCreate(p, pooled->arity()).InsertAll(*pooled);
    }
    PDATALOG_RETURN_IF_ERROR(total.output.Absorb(std::move(result->output)));

    // Aggregate statistics: counters add across strata; the scalar
    // fields are re-projected from the merged registry at the end.
    total.metrics.Merge(result->metrics);
    total.faults += result->faults;
    for (const RebalanceLogEntry& entry : result->rebalance_log) {
      total.rebalance_log.push_back(entry);
    }
    for (int i = 0; i < num_processors; ++i) {
      const WorkerStats& w = result->workers[i];
      total.workers[i].rounds += w.rounds;
      total.workers[i].firings += w.firings;
      total.workers[i].out_inserted += w.out_inserted;
      total.workers[i].in_inserted += w.in_inserted;
      total.workers[i].received += w.received;
      total.workers[i].sent_cross += w.sent_cross;
      total.workers[i].sent_self += w.sent_self;
      total.workers[i].broadcasts += w.broadcasts;
      total.workers[i].frames += w.frames;
      total.workers[i].rows_examined += w.rows_examined;
      total.workers[i].batch_fallbacks += w.batch_fallbacks;
      for (int j = 0; j < num_processors; ++j) {
        total.channel_matrix[i][j] += result->channel_matrix[i][j];
        total.bytes_matrix[i][j] += result->bytes_matrix[i][j];
        total.frames_matrix[i][j] += result->frames_matrix[i][j];
      }
      // Concatenate round logs stratum after stratum (the strata are
      // sequential phases, so this is the true global round order).
      for (const RoundLog& log : result->worker_rounds[i]) {
        total.worker_rounds[i].push_back(log);
      }
    }
  }
  total.wall_seconds = watch.ElapsedSeconds();
  total.metrics.SetGauge("run.wall_seconds", total.wall_seconds);
  ProjectScalarsFromMetrics(&total);
  return total;
}

}  // namespace pdatalog
