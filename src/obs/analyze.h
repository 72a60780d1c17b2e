// Post-run trace analysis: turns the raw per-worker trace rings into
// the quantities the paper's scheme spectrum is judged by (Sections
// 4-6): per-round busy/idle breakdowns, the skew ratio of the
// discriminating function's partition (max/mean busy time), straggler
// identification, the empirical communication matrix (the Section 5
// network graphs), and the run's critical path — the chain of
// worker-busy segments linked by frame-flow edges that bounds any
// further speedup.
//
// The analyzer is read-only over a Tracer and deliberately knows
// nothing about the engine: AnalyzeRun takes a plain ProfileContext
// (matrices + registry pointer) that core/report.h knows how to build
// from a ParallelResult (MakeProfileContext), keeping src/obs/ free of
// core dependencies.
#ifndef PDATALOG_OBS_ANALYZE_H_
#define PDATALOG_OBS_ANALYZE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace pdatalog {

// One decision of the skew rebalancer (core/rebalance.h): in report
// window `window`, bucket `bucket` of discriminating function `function`
// was taken from straggler `from` and either forwarded to worker `to` or
// replicated (`to` == -1, every sender keeps its share local). `skew`
// is the max/mean ratio of per-worker firings that triggered it. Defined
// here, not in core, so the profile report can render the decision log
// without src/obs/ growing a core dependency.
struct RebalanceLogEntry {
  uint64_t window = 0;
  int function = -1;
  uint32_t bucket = 0;
  int from = -1;
  int to = -1;  // -1 = replicated (keep-local)
  uint64_t tuples = 0;
  double skew = 0.0;
};

// Optional run-level context for AnalyzeRun. Everything is borrowed or
// copied from a finished run; `metrics` (may be null) must outlive the
// call.
struct ProfileContext {
  std::vector<std::vector<uint64_t>> tuples_matrix;  // [from][to]
  std::vector<std::vector<uint64_t>> frames_matrix;  // [from][to]
  // sent_by_round[i][r][j]: tuples worker i sent to j in round r
  // (r == 0 is the initialization round).
  std::vector<std::vector<std::vector<uint64_t>>> sent_by_round;
  std::vector<RebalanceLogEntry> rebalance_log;
  const MetricsRegistry* metrics = nullptr;
};

// Number of span phases (TracePhase kInit..kMaintain); phase_ns is
// indexed by the TracePhase value.
inline constexpr int kNumSpanPhases = 11;

// Busy/idle accounting for one worker within one round (or, for
// ProfileReport::totals, across the whole run). Only top-level spans
// count — nested spans (insert inside drain, encode inside flush) are
// already covered by their parent, so the phases sum to busy + idle.
struct WorkerRoundProfile {
  uint64_t busy_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t phase_ns[kNumSpanPhases] = {};
};

struct RoundProfile {
  int round = 0;
  std::vector<WorkerRoundProfile> workers;
  // max/mean busy time over all workers; 1.0 when nobody was busy.
  // This is the direct observable for how well the scheme's
  // discriminating functions balance the load.
  double skew_ratio = 1.0;
  int straggler = -1;       // argmax busy; -1 when nobody was busy
  uint64_t tuples_sent = 0; // total cross-worker tuples (0 w/o context)
};

// One link of the critical path: worker `worker` busy from `begin_ns`
// to `end_ns` (relative to the tracer epoch). `from_worker` names the
// sender whose frame the segment consumed, -1 when the segment follows
// program order on the same worker (or starts the chain).
struct CriticalPathSegment {
  int worker = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  int from_worker = -1;
};

struct ProfileReport {
  int num_workers = 0;
  uint64_t span_ns = 0;    // epoch to the last recorded event
  uint64_t dropped = 0;    // events lost to ring overflow
  std::vector<RoundProfile> rounds;
  std::vector<WorkerRoundProfile> totals;  // per worker, whole run
  double skew_ratio = 1.0;                 // over totals
  int straggler = -1;
  std::vector<CriticalPathSegment> critical_path;
  uint64_t critical_path_ns = 0;  // sum of segment lengths
  std::vector<std::vector<uint64_t>> tuples_matrix;  // from context
  std::vector<std::vector<uint64_t>> frames_matrix;
  // Distribution snapshot (hist.* entries), copied from the context's
  // registry so the report is self-contained.
  std::vector<std::pair<std::string, Histogram>> histograms;
  // Skew-rebalancer decisions, in publish order (empty when off).
  std::vector<RebalanceLogEntry> rebalance_log;

  // Human-readable analysis section (appended after the text report by
  // --profile) and a JSON rendering (written by --profile=FILE).
  std::string ToText() const;
  std::string ToJson() const;
};

// Trace-only analysis: busy/idle/skew/critical-path from the rings.
ProfileReport AnalyzeTrace(const Tracer& tracer);

// Full analysis: adds the communication matrices, per-round sent
// tuples, and histogram snapshot from `context`.
ProfileReport AnalyzeRun(const Tracer& tracer,
                         const ProfileContext& context);

// Writes report.ToJson() to `path`.
Status WriteProfileJson(const ProfileReport& report,
                        const std::string& path);

}  // namespace pdatalog

#endif  // PDATALOG_OBS_ANALYZE_H_
