#ifndef LIFECYCLE_BENCH_LIFECYCLE_H_
#define LIFECYCLE_BENCH_LIFECYCLE_H_

#include <cstdint>
#include <string>

#include "util.h"
#include "workloads.h"

// The two runs of one workload. Both walk the same five phases on the
// program's public API — build, publish, open, query, refresh — and
// check the outputs.
//
// RunLifecycle is the untraced run: it reports the end-to-end metrics.
// RunTraced drives the build one stage call and one chunk at a time,
// records a span around every call into a layer, and reports the
// per-layer metrics; its spans are written to `<work_dir>/spans-*.json`
// when it ends.

namespace lcb {

// Generations a run's snapshot stores keep.
inline constexpr int kKeepGenerations = 2;

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  // Scratch directory for snapshot stores (removed afterwards) and the
  // span file of a traced run.
  std::string work_dir;
};

Outcome RunLifecycle(const WorkloadSpec& spec, const RunOptions& options);
Outcome RunTraced(const WorkloadSpec& spec, const RunOptions& options);

// Timed serving rounds for a run of `seconds` (deterministic, >= 1).
int ServingRounds(const WorkloadSpec& spec, int seconds);

// The cold-start refresh operation: ServingInventory::OpenLatest(store)
// (the store-only overload) on a store in `cold_dir` holding only the
// base generation, Refresh with the first daily delta, then the
// conservation check on the generation that Refresh published. Counts
// one attempted operation, and one failed when records are lost.
void RunColdStartRefresh(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::string& cold_dir,
                         uint64_t base_cell_records, Outcome* outcome);

}  // namespace lcb

#endif  // LIFECYCLE_BENCH_LIFECYCLE_H_
