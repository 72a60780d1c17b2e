#include "obs/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/export.h"
#include "util/table.h"

namespace pdatalog {

namespace {

bool IsSpanPhase(TracePhase phase) {
  return static_cast<uint16_t>(phase) <
         static_cast<uint16_t>(kNumSpanPhases);
}

// One top-level span of a worker's ring, stamped with the round it
// belongs to. Round windows are delimited by kRound instants: a span
// belongs to the last round instant seen before it ended, so the
// window before the first instant is round 0 (initialization); the
// drain that feeds round k is attributed to the preceding window,
// which is where its wait actually happened.
struct Span {
  uint64_t begin = 0;
  uint64_t end = 0;
  TracePhase phase = TracePhase::kInit;
  int round = 0;
};

struct FlowMark {
  uint64_t ts = 0;
  int peer = 0;
  uint32_t seq = 0;
};

struct WorkerTrace {
  std::vector<Span> spans;  // top-level only, in ring (time) order
  std::vector<FlowMark> sends;
  std::vector<FlowMark> recvs;
  uint64_t last_ts = 0;
};

WorkerTrace ParseRing(const TraceRing& ring, uint64_t epoch) {
  WorkerTrace wt;
  wt.last_ts = epoch;
  std::vector<std::pair<TracePhase, uint64_t>> open;
  int round = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.event(i);
    wt.last_ts = std::max(wt.last_ts, e.ts);
    switch (e.kind) {
      case TraceEventKind::kBegin:
        open.emplace_back(e.phase, e.ts);
        break;
      case TraceEventKind::kEnd:
        if (open.empty() || open.back().first != e.phase) break;
        if (open.size() == 1) {
          wt.spans.push_back(Span{open.back().second, e.ts, e.phase, round});
        }
        open.pop_back();
        break;
      case TraceEventKind::kInstant:
        if (e.phase == TracePhase::kRound) {
          round = static_cast<int>(e.arg);
        } else if (e.phase == TracePhase::kFlowSend) {
          wt.sends.push_back(FlowMark{e.ts, FlowPeer(e.arg), FlowSeq(e.arg)});
        } else if (e.phase == TracePhase::kFlowRecv) {
          wt.recvs.push_back(FlowMark{e.ts, FlowPeer(e.arg), FlowSeq(e.arg)});
        }
        break;
    }
  }
  // A ring that overflowed can leave spans open; close them at the last
  // recorded timestamp, mirroring the exporter's sanitization.
  while (!open.empty()) {
    if (open.size() == 1) {
      wt.spans.push_back(
          Span{open.back().second, wt.last_ts, open.back().first, round});
    }
    open.pop_back();
  }
  return wt;
}

// A maximal run of consecutive busy (non-idle) top-level spans.
struct BusyInterval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

std::vector<BusyInterval> BusyIntervals(const WorkerTrace& wt) {
  std::vector<BusyInterval> out;
  bool open = false;
  for (const Span& s : wt.spans) {
    if (s.phase == TracePhase::kIdle) {
      open = false;
      continue;
    }
    if (open && s.begin >= out.back().begin) {
      out.back().end = std::max(out.back().end, s.end);
    } else {
      out.push_back(BusyInterval{s.begin, s.end});
      open = true;
    }
  }
  return out;
}

// A delivery on some worker paired back to the matching send: the
// flow edges of the critical path. Pairing is positional per
// (sender, receiver, sequence) key, exactly like the Chrome exporter
// (stratified runs reuse sequences; channels are FIFO).
struct PairedRecv {
  uint64_t recv_ts = 0;
  int sender = 0;
  uint64_t send_ts = 0;
};

std::vector<std::vector<PairedRecv>> PairFlows(
    const std::vector<WorkerTrace>& traces) {
  struct Endpoints {
    std::vector<uint64_t> send_ts;
    std::vector<std::pair<int, uint64_t>> recv;  // (receiver, ts)
  };
  std::map<uint64_t, Endpoints> by_key;
  for (size_t w = 0; w < traces.size(); ++w) {
    for (const FlowMark& s : traces[w].sends) {
      uint64_t key = ((static_cast<uint64_t>(w) << 10 |
                       static_cast<uint64_t>(s.peer))
                      << kFlowSeqBits) |
                     s.seq;
      by_key[key].send_ts.push_back(s.ts);
    }
    for (const FlowMark& r : traces[w].recvs) {
      uint64_t key = ((static_cast<uint64_t>(r.peer) << 10 | w)
                      << kFlowSeqBits) |
                     r.seq;
      by_key[key].recv.push_back({static_cast<int>(w), r.ts});
    }
  }
  std::vector<std::vector<PairedRecv>> paired(traces.size());
  for (const auto& [key, ep] : by_key) {
    int sender = static_cast<int>(key >> (kFlowSeqBits + 10));
    size_t n = std::min(ep.send_ts.size(), ep.recv.size());
    for (size_t k = 0; k < n; ++k) {
      paired[static_cast<size_t>(ep.recv[k].first)].push_back(
          PairedRecv{ep.recv[k].second, sender, ep.send_ts[k]});
    }
  }
  for (auto& v : paired) {
    std::sort(v.begin(), v.end(),
              [](const PairedRecv& a, const PairedRecv& b) {
                return a.recv_ts < b.recv_ts;
              });
  }
  return paired;
}

// Greedy backward walk: start at the globally latest busy moment and
// chain backwards — within a busy interval, prefer the latest frame
// delivery (jump to its sender at the send instant); otherwise follow
// program order to the worker's previous busy interval; stop at a
// segment with neither (the start of initialization).
std::vector<CriticalPathSegment> WalkCriticalPath(
    const std::vector<std::vector<BusyInterval>>& intervals,
    const std::vector<std::vector<PairedRecv>>& paired, uint64_t epoch) {
  int w = -1;
  uint64_t t = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    if (!intervals[i].empty() && intervals[i].back().end > t) {
      t = intervals[i].back().end;
      w = static_cast<int>(i);
    }
  }
  std::vector<CriticalPathSegment> path;
  // 4 segments per interval bounds the walk; the guard is belt and
  // braces against pathological traces.
  int guard = 0;
  for (const auto& ivs : intervals) guard += static_cast<int>(ivs.size());
  guard = guard * 4 + 16;
  while (w >= 0 && guard-- > 0) {
    const std::vector<BusyInterval>& ivs =
        intervals[static_cast<size_t>(w)];
    const BusyInterval* iv = nullptr;
    for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) {
      if (it->begin < t) {
        iv = &*it;
        break;
      }
    }
    if (iv == nullptr) break;
    uint64_t seg_end = std::min(iv->end, t);
    const PairedRecv* jump = nullptr;
    for (auto it = paired[static_cast<size_t>(w)].rbegin();
         it != paired[static_cast<size_t>(w)].rend(); ++it) {
      if (it->recv_ts <= seg_end && it->recv_ts >= iv->begin &&
          it->send_ts < it->recv_ts) {
        jump = &*it;
        break;
      }
    }
    // Across a flow edge the path already runs through the sender up
    // to the send, so the receiver's segment starts no earlier than it
    // (segments stay disjoint and the path fits inside the span).
    uint64_t seg_begin =
        jump != nullptr ? std::max(iv->begin, jump->send_ts) : iv->begin;
    CriticalPathSegment seg;
    seg.worker = w;
    seg.begin_ns = seg_begin >= epoch ? seg_begin - epoch : 0;
    seg.end_ns = seg_end >= epoch ? seg_end - epoch : 0;
    if (jump != nullptr) {
      seg.from_worker = jump->sender;
      path.push_back(seg);
      w = jump->sender;
      t = jump->send_ts;
    } else {
      seg.from_worker = -1;
      path.push_back(seg);
      if (iv->begin == 0 || iv->begin <= epoch) break;
      t = iv->begin;
      bool more = false;
      for (const BusyInterval& b : ivs) {
        if (b.begin < t) {
          more = true;
          break;
        }
      }
      if (!more) break;
    }
  }
  std::reverse(path.begin(), path.end());
  // Coalesce consecutive same-worker segments linked by program order
  // (empty drains during idle polling otherwise shred the chain).
  std::vector<CriticalPathSegment> merged;
  for (const CriticalPathSegment& seg : path) {
    if (!merged.empty() && merged.back().worker == seg.worker &&
        seg.from_worker == -1) {
      merged.back().end_ns = std::max(merged.back().end_ns, seg.end_ns);
      merged.back().begin_ns = std::min(merged.back().begin_ns, seg.begin_ns);
    } else {
      merged.push_back(seg);
    }
  }
  return merged;
}

void FoldSpan(WorkerRoundProfile* p, const Span& s) {
  uint64_t dur = s.end >= s.begin ? s.end - s.begin : 0;
  if (s.phase == TracePhase::kIdle) {
    p->idle_ns += dur;
  } else {
    p->busy_ns += dur;
  }
  if (IsSpanPhase(s.phase)) {
    p->phase_ns[static_cast<size_t>(s.phase)] += dur;
  }
}

void ComputeSkew(const std::vector<WorkerRoundProfile>& workers,
                 double* skew, int* straggler) {
  uint64_t max_busy = 0;
  uint64_t sum_busy = 0;
  int arg = -1;
  for (size_t i = 0; i < workers.size(); ++i) {
    sum_busy += workers[i].busy_ns;
    if (workers[i].busy_ns > max_busy) {
      max_busy = workers[i].busy_ns;
      arg = static_cast<int>(i);
    }
  }
  double mean = workers.empty()
                    ? 0.0
                    : static_cast<double>(sum_busy) /
                          static_cast<double>(workers.size());
  *skew = mean == 0.0 ? 1.0 : static_cast<double>(max_busy) / mean;
  *straggler = arg;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMatrixJson(std::string* out, const char* name,
                      const std::vector<std::vector<uint64_t>>& m) {
  *out += std::string("  \"") + name + "\": [";
  for (size_t i = 0; i < m.size(); ++i) {
    *out += i == 0 ? "[" : ", [";
    for (size_t j = 0; j < m[i].size(); ++j) {
      if (j != 0) *out += ", ";
      *out += std::to_string(m[i][j]);
    }
    *out += "]";
  }
  *out += "]";
}

}  // namespace

ProfileReport AnalyzeRun(const Tracer& tracer,
                         const ProfileContext& context) {
  ProfileReport report;
  report.num_workers = tracer.num_workers();
  report.dropped = tracer.total_dropped();

  std::vector<WorkerTrace> traces;
  traces.reserve(static_cast<size_t>(tracer.num_workers()));
  int max_round = 0;
  uint64_t last_ts = tracer.epoch_ticks();
  for (int i = 0; i < tracer.num_workers(); ++i) {
    traces.push_back(ParseRing(tracer.ring(i), tracer.epoch_ticks()));
    last_ts = std::max(last_ts, traces.back().last_ts);
    for (const Span& s : traces.back().spans) {
      max_round = std::max(max_round, s.round);
    }
  }
  report.span_ns = last_ts - tracer.epoch_ticks();

  size_t num_workers = static_cast<size_t>(tracer.num_workers());
  report.rounds.resize(static_cast<size_t>(max_round) + 1);
  for (size_t r = 0; r < report.rounds.size(); ++r) {
    report.rounds[r].round = static_cast<int>(r);
    report.rounds[r].workers.resize(num_workers);
  }
  report.totals.resize(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    for (const Span& s : traces[w].spans) {
      FoldSpan(&report.rounds[static_cast<size_t>(s.round)].workers[w], s);
      FoldSpan(&report.totals[w], s);
    }
  }
  for (RoundProfile& round : report.rounds) {
    ComputeSkew(round.workers, &round.skew_ratio, &round.straggler);
    size_t r = static_cast<size_t>(round.round);
    for (size_t i = 0; i < context.sent_by_round.size(); ++i) {
      if (r >= context.sent_by_round[i].size()) continue;
      const std::vector<uint64_t>& row = context.sent_by_round[i][r];
      for (size_t j = 0; j < row.size(); ++j) {
        if (j == i) continue;  // self-routed tuples are not communication
        round.tuples_sent += row[j];
      }
    }
  }
  ComputeSkew(report.totals, &report.skew_ratio, &report.straggler);

  std::vector<std::vector<BusyInterval>> intervals;
  intervals.reserve(num_workers);
  for (const WorkerTrace& wt : traces) {
    intervals.push_back(BusyIntervals(wt));
  }
  report.critical_path =
      WalkCriticalPath(intervals, PairFlows(traces), tracer.epoch_ticks());
  for (const CriticalPathSegment& seg : report.critical_path) {
    report.critical_path_ns += seg.end_ns - seg.begin_ns;
  }

  report.tuples_matrix = context.tuples_matrix;
  report.frames_matrix = context.frames_matrix;
  report.rebalance_log = context.rebalance_log;
  if (context.metrics != nullptr) {
    for (const auto& [name, h] : context.metrics->histograms()) {
      report.histograms.emplace_back(name, h);
    }
  }
  return report;
}

ProfileReport AnalyzeTrace(const Tracer& tracer) {
  return AnalyzeRun(tracer, ProfileContext{});
}

std::string ProfileReport::ToText() const {
  std::string out = "\nprofile:\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  span %.3f ms, %d workers, %zu rounds, critical path "
                "%.3f ms (%.0f%% of span)\n",
                Ms(span_ns), num_workers, rounds.size(),
                Ms(critical_path_ns),
                span_ns == 0 ? 0.0
                             : 100.0 * static_cast<double>(critical_path_ns) /
                                   static_cast<double>(span_ns));
  out += line;
  std::snprintf(line, sizeof(line),
                "  overall skew %.2f (straggler: worker %d)\n", skew_ratio,
                straggler);
  out += line;
  if (dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "  warning: %llu trace events dropped; analysis is "
                  "truncated (raise --trace-ring-kb)\n",
                  static_cast<unsigned long long>(dropped));
    out += line;
  }

  if (!totals.empty()) {
    out += "\nper-worker busy/idle (ms):\n";
    TextTable t({"worker", "busy", "idle", "init", "drain", "probe",
                 "flush", "busy-share"});
    uint64_t total_busy = 0;
    for (const WorkerRoundProfile& w : totals) total_busy += w.busy_ns;
    for (size_t i = 0; i < totals.size(); ++i) {
      const WorkerRoundProfile& w = totals[i];
      double share =
          total_busy == 0 ? 0.0
                          : 100.0 * static_cast<double>(w.busy_ns) /
                                static_cast<double>(total_busy);
      t.AddRow({TextTable::Cell(static_cast<int>(i)),
                TextTable::Cell(Ms(w.busy_ns), 3),
                TextTable::Cell(Ms(w.idle_ns), 3),
                TextTable::Cell(
                    Ms(w.phase_ns[static_cast<size_t>(TracePhase::kInit)]),
                    3),
                TextTable::Cell(
                    Ms(w.phase_ns[static_cast<size_t>(TracePhase::kDrain)]),
                    3),
                TextTable::Cell(
                    Ms(w.phase_ns[static_cast<size_t>(TracePhase::kProbe)]),
                    3),
                TextTable::Cell(
                    Ms(w.phase_ns[static_cast<size_t>(TracePhase::kFlush)]),
                    3),
                TextTable::Cell(share, 1) + "%"});
    }
    out += t.ToString();
  }

  if (!rounds.empty()) {
    out += "\nper-round skew (max/mean busy; straggler in brackets):\n";
    TextTable t({"round", "busy max ms", "busy mean ms", "skew",
                 "straggler", "tuples sent"});
    constexpr size_t kMaxRows = 32;
    for (size_t r = 0; r < rounds.size() && r < kMaxRows; ++r) {
      const RoundProfile& round = rounds[r];
      uint64_t max_busy = 0;
      uint64_t sum_busy = 0;
      for (const WorkerRoundProfile& w : round.workers) {
        max_busy = std::max(max_busy, w.busy_ns);
        sum_busy += w.busy_ns;
      }
      double mean =
          round.workers.empty()
              ? 0.0
              : static_cast<double>(sum_busy) /
                    static_cast<double>(round.workers.size());
      t.AddRow({TextTable::Cell(round.round),
                TextTable::Cell(Ms(max_busy), 3),
                TextTable::Cell(mean / 1e6, 3),
                TextTable::Cell(round.skew_ratio, 2),
                TextTable::Cell(round.straggler),
                TextTable::Cell(round.tuples_sent)});
    }
    out += t.ToString();
    if (rounds.size() > kMaxRows) {
      std::snprintf(line, sizeof(line), "  ... (%zu more rounds)\n",
                    rounds.size() - kMaxRows);
      out += line;
    }
  }

  if (!tuples_matrix.empty()) {
    out += "\ncommunication matrix (tuples/frames from row to column):\n";
    std::vector<std::string> header = {"from\\to"};
    for (size_t j = 0; j < tuples_matrix.size(); ++j) {
      header.push_back(std::to_string(j));
    }
    TextTable t(header);
    for (size_t i = 0; i < tuples_matrix.size(); ++i) {
      std::vector<std::string> row = {std::to_string(i)};
      for (size_t j = 0; j < tuples_matrix[i].size(); ++j) {
        uint64_t frames = i < frames_matrix.size() &&
                                  j < frames_matrix[i].size()
                              ? frames_matrix[i][j]
                              : 0;
        row.push_back(tuples_matrix[i][j] == 0 && frames == 0
                          ? "."
                          : std::to_string(tuples_matrix[i][j]) + "/" +
                                std::to_string(frames));
      }
      t.AddRow(row);
    }
    out += t.ToString();
  }

  if (!critical_path.empty()) {
    out += "\ncritical path:\n";
    for (const CriticalPathSegment& seg : critical_path) {
      if (seg.from_worker >= 0) {
        std::snprintf(line, sizeof(line),
                      "  worker %d: %.3f -> %.3f ms (after frame from "
                      "worker %d)\n",
                      seg.worker, Ms(seg.begin_ns), Ms(seg.end_ns),
                      seg.from_worker);
      } else {
        std::snprintf(line, sizeof(line), "  worker %d: %.3f -> %.3f ms\n",
                      seg.worker, Ms(seg.begin_ns), Ms(seg.end_ns));
      }
      out += line;
    }
  }

  if (!rebalance_log.empty()) {
    out += "\nrebalance decisions (bucket moves by the skew rebalancer):\n";
    TextTable t({"window", "function", "bucket", "from", "to", "tuples",
                 "skew"});
    for (const RebalanceLogEntry& e : rebalance_log) {
      t.AddRow({TextTable::Cell(e.window), TextTable::Cell(e.function),
                TextTable::Cell(static_cast<uint64_t>(e.bucket)),
                TextTable::Cell(e.from),
                e.to < 0 ? std::string("replicate")
                         : std::to_string(e.to),
                TextTable::Cell(e.tuples), TextTable::Cell(e.skew, 2)});
    }
    out += t.ToString();
  }

  if (!histograms.empty()) {
    out += "\nlatency/size percentiles (ns for *_ns, units otherwise):\n";
    TextTable t({"metric", "count", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : histograms) {
      t.AddRow({name, TextTable::Cell(h.count()),
                TextTable::Cell(h.Percentile(50), 0),
                TextTable::Cell(h.Percentile(95), 0),
                TextTable::Cell(h.Percentile(99), 0),
                TextTable::Cell(h.max())});
    }
    out += t.ToString();
  }
  return out;
}

std::string ProfileReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"num_workers\": " + std::to_string(num_workers) + ",\n";
  out += "  \"span_ns\": " + std::to_string(span_ns) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped) + ",\n";
  out += "  \"skew_ratio\": " + JsonNum(skew_ratio) + ",\n";
  out += "  \"straggler\": " + std::to_string(straggler) + ",\n";
  out += "  \"critical_path_ns\": " + std::to_string(critical_path_ns) +
         ",\n";

  out += "  \"totals\": [";
  for (size_t i = 0; i < totals.size(); ++i) {
    const WorkerRoundProfile& w = totals[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"worker\": " + std::to_string(i) +
           ", \"busy_ns\": " + std::to_string(w.busy_ns) +
           ", \"idle_ns\": " + std::to_string(w.idle_ns) + ", \"phases\": {";
    bool first = true;
    for (int p = 0; p < kNumSpanPhases; ++p) {
      if (w.phase_ns[p] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") +
             TracePhaseName(static_cast<TracePhase>(p)) +
             "\": " + std::to_string(w.phase_ns[p]);
    }
    out += "}}";
  }
  out += totals.empty() ? "],\n" : "\n  ],\n";

  out += "  \"rounds\": [";
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundProfile& round = rounds[r];
    out += r == 0 ? "\n" : ",\n";
    out += "    {\"round\": " + std::to_string(round.round) +
           ", \"skew_ratio\": " + JsonNum(round.skew_ratio) +
           ", \"straggler\": " + std::to_string(round.straggler) +
           ", \"tuples_sent\": " + std::to_string(round.tuples_sent) +
           ", \"busy_ns\": [";
    for (size_t w = 0; w < round.workers.size(); ++w) {
      if (w != 0) out += ", ";
      out += std::to_string(round.workers[w].busy_ns);
    }
    out += "]}";
  }
  out += rounds.empty() ? "],\n" : "\n  ],\n";

  out += "  \"critical_path\": [";
  for (size_t i = 0; i < critical_path.size(); ++i) {
    const CriticalPathSegment& seg = critical_path[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"worker\": " + std::to_string(seg.worker) +
           ", \"begin_ns\": " + std::to_string(seg.begin_ns) +
           ", \"end_ns\": " + std::to_string(seg.end_ns) +
           ", \"from_worker\": " + std::to_string(seg.from_worker) + "}";
  }
  out += critical_path.empty() ? "],\n" : "\n  ],\n";

  AppendMatrixJson(&out, "tuples_matrix", tuples_matrix);
  out += ",\n";
  AppendMatrixJson(&out, "frames_matrix", frames_matrix);
  out += ",\n";

  out += "  \"rebalance\": [";
  for (size_t i = 0; i < rebalance_log.size(); ++i) {
    const RebalanceLogEntry& e = rebalance_log[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"window\": " + std::to_string(e.window) +
           ", \"function\": " + std::to_string(e.function) +
           ", \"bucket\": " + std::to_string(e.bucket) +
           ", \"from\": " + std::to_string(e.from) +
           ", \"to\": " + std::to_string(e.to) +
           ", \"tuples\": " + std::to_string(e.tuples) +
           ", \"skew\": " + JsonNum(e.skew) + "}";
  }
  out += rebalance_log.empty() ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const auto& [name, h] = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h.count()) +
           ", \"p50\": " + JsonNum(h.Percentile(50)) +
           ", \"p95\": " + JsonNum(h.Percentile(95)) +
           ", \"p99\": " + JsonNum(h.Percentile(99)) +
           ", \"max\": " + std::to_string(h.max()) + "}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status WriteProfileJson(const ProfileReport& report,
                        const std::string& path) {
  return WriteTextFile(report.ToJson(), path, "profile");
}

}  // namespace pdatalog
