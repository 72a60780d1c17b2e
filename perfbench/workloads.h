// The benchmark's workloads (see README.md for why each was chosen).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// oneshot_ex3 / oneshot_ex1: repeated parallel fixpoints of ancestor over
// a random graph, plus answers and single-fact updates on the result.
RunRecord RunOneshot(const Options& options, Scheme scheme);

// serve_mixed: a resident ServerEngine behind a loopback SocketServer,
// driven by an open-loop client (queries on one connection, updates +
// flushes on another).
RunRecord RunServe(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
