// The lifecycle benchmark: builds, publishes, cold-opens, serves and
// refreshes a patterns-of-life inventory on one seeded workload, checks
// the outputs, and ends its standard output with one JSON result line.
//
//   lifecycle_bench --workload build|serve|refresh --seed N --seconds S
//                   --trace 0|1 [--size full|smoke] [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. See README.md beside this directory's
// CMakeLists.txt for the workloads and the metric map.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "lifecycle.h"
#include "util.h"
#include "workloads.h"

namespace lcb {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload build|serve|refresh --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] "
               "[--work-dir DIR] [--git-sha SHA]\n",
               argv0);
  return 2;
}

// Numbers from a build that is not optimized, or that carries
// sanitizers or live fail points, measure something else.
const char* UnfitBuild() {
#if defined(POL_FAILPOINTS)
  return "fail points are compiled in (POL_FAILPOINTS)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#endif
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "not an optimized release build";
#endif
  if (std::strstr(LCB_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "a sanitizer is compiled in";
  }
  const std::string type = LCB_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is not Release or RelWithDebInfo";
  }
  return nullptr;
}

}  // namespace
}  // namespace lcb

int main(int argc, char** argv) {
  using namespace lcb;
  std::string workload;
  std::string size = "full";
  std::string work_dir = ".bench_work";
  std::string git_sha = "unknown";
  long long seed = -1;
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::atoll(value);
    } else if (arg == "--seconds") {
      seconds = std::atoi(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--size") {
      size = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(argv[0]);
    }
  }
  WorkloadSpec spec;
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1) ||
      (size != "full" && size != "smoke") ||
      !FindWorkload(workload, size == "smoke", &spec)) {
    return Usage(argv[0]);
  }
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::printf("lifecycle_bench: workload %s (%s size), seed %lld, "
              "seconds %d, trace %d\n",
              workload.c_str(), size.c_str(), seed, seconds, trace);
  std::printf("host %s, nproc %u, compiler %s, build type %s, git %s\n", host,
              std::thread::hardware_concurrency(), LCB_COMPILER,
              LCB_BUILD_TYPE, git_sha.c_str());
  std::printf("inputs: %d commercial + %d other vessels over %d days "
              "(%d daily deltas), resolution %d, %d pipeline threads, "
              "%d partitions, %d chunks; world seed %llu, query seed %lld\n",
              spec.commercial_vessels, spec.noncommercial_vessels, spec.days,
              spec.delta_days, spec.resolution, spec.threads, spec.partitions,
              spec.chunks, static_cast<unsigned long long>(spec.world_seed),
              seed);
  if (const char* unfit = UnfitBuild()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n", unfit);
    return 3;
  }

  RunOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.work_dir = (std::filesystem::path(work_dir) /
                      (workload + "-" + std::to_string(seed) + "-" +
                       std::to_string(trace)))
                         .string();
  std::filesystem::create_directories(options.work_dir);
  const Outcome outcome =
      trace == 1 ? RunTraced(spec, options) : RunLifecycle(spec, options);
  PrintOutcome(outcome);
  return 0;
}
