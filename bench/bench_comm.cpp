// EXP-8: wire-protocol batching — frames and bytes versus the block
// flush threshold, on the paper's two communicating ancestor schemes
// (Example 2's broadcast fragmentation and Example 3's hashed
// point-to-point). --block-tuples=1 reproduces the old per-tuple
// protocol (one frame per tuple) and is the baseline; larger thresholds
// coalesce whole runs of same-predicate tuples into one frame each.
//
// The cross-tuple count is scheme-determined, so it must not move with
// the threshold; frames (and with them header/checksum bytes and lock
// acquisitions) must shrink by the achieved tuples-per-frame factor.
// BlockBatchingTest (tests/block_test.cc) gates both on a deterministic
// schedule.
//
// `bench_comm smoke` runs a tiny input for CI.
#include <cstdio>
#include <cstring>

#include "bench_util.h"

using namespace pdatalog;
using bench::AncestorHarness;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  const int P = 4;
  std::printf(
      "EXP-8: block wire protocol (ancestor, %d processors).\n"
      "expectation: cross tuples are fixed by the scheme; frames shrink\n"
      "~1/threshold until round boundaries cap the achievable batch.\n\n",
      P);

  struct SchemeCase {
    const char* name;
    bool broadcast;  // Example 2 (fragmentation) vs Example 3 (hash)
  };
  for (const SchemeCase& sc :
       {SchemeCase{"example2", true}, SchemeCase{"example3", false}}) {
    AncestorHarness h;
    Database base;
    size_t edges = GenRandomGraph(&h.symbols, &base, "par",
                                  smoke ? 24 : 150, smoke ? 60 : 450, 7);
    LinearSchemeOptions scheme =
        sc.broadcast ? h.Example2(base, P) : h.Example3(P);
    std::printf("scheme=%s edges=%zu\n", sc.name, edges);

    TextTable table({"block-tuples", "cross-tuples", "frames",
                     "tuples/frame", "bytes"});
    for (int block : {1, 8, 64, 256, 1024}) {
      ParallelOptions options;
      options.block_tuples = block;
      ParallelResult r = h.RunScheme(base, scheme, P, options);
      double tpf = r.cross_frames == 0
                       ? 0.0
                       : static_cast<double>(r.cross_tuples) /
                             static_cast<double>(r.cross_frames);
      table.AddRow({TextTable::Cell(block),
                    TextTable::Cell(r.cross_tuples),
                    TextTable::Cell(r.cross_frames),
                    TextTable::Cell(tpf, 1), TextTable::Cell(r.cross_bytes)});
    }
    table.Print();
    std::printf("\n");
  }

  std::printf(
      "reading guide: the block-tuples=1 row is the per-tuple protocol\n"
      "(one frame per tuple), so tuples/frame is also each row's frame\n"
      "reduction. Residual bytes per tuple approach 4*arity as the\n"
      "header and checksum amortize across the block.\n");
  return 0;
}
