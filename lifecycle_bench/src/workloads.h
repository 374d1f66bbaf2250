#ifndef LIFECYCLE_BENCH_WORKLOADS_H_
#define LIFECYCLE_BENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ais/messages.h"
#include "ais/types.h"
#include "core/pipeline.h"
#include "geo/latlng.h"
#include "sim/ports.h"

// The three workloads, their inputs, and the set-up that makes those
// inputs from a seed: simulate the archive, split it into a base and
// trailing daily deltas, and generate the query sets. The program sees
// only the generated inputs.

namespace lcb {

namespace ais = pol::ais;
namespace core = pol::core;
namespace geo = pol::geo;
namespace sim = pol::sim;

struct WorkloadSpec {
  std::string name;
  // The simulated world is the workload's fixed corpus; --seed draws
  // the query streams from it (see README.md, "Seeds").
  uint64_t world_seed = 2022;
  int resolution = 6;
  int commercial_vessels = 0;
  int noncommercial_vessels = 0;
  int days = 0;        // Archive length.
  int delta_days = 0;  // Trailing days split off as daily deltas.
  // RunPipeline's worker pool. The calling thread folds chunks and
  // joins ParallelFor fan-outs, so threads + 1 run at most (+1 reader
  // during refresh rounds).
  int threads = 2;
  int partitions = 8;
  int chunks = 4;
  int setup_reps = 3;    // Set-ups per run; setup_s is their median.
  int build_reps = 1;    // Base builds per run (the last one is kept).
  int publish_reps = 1;  // Publishes per run; publish_s is their median.
  int open_reps = 5;     // Cold opens per run; open_s is their median.
  size_t point_queries = 0;    // Distinct operations in the point-query mix.
  // Timed serving rounds per --seconds: each round is one pass of the
  // point-query mix and its share of the forecasts, so both serving
  // metrics sample the same stretch of time.
  double rounds_per_second = 0.0;
  size_t forecasts = 0;  // Timed forecasts (>= 100 for the p90).
  // Untimed forecasts before the timed ones (warm-up and output checks).
  size_t checked_forecasts = 100;
  double min_forecast_km = 2000.0;
  size_t min_voyage_reports = 30;
  bool cold_start_refresh = false;  // The store-only open + Refresh op.
};

// The named workload at full size (`smoke` = false) or at the smoke
// size the benchmark's own tests run. Returns false on an unknown name.
bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

core::PipelineConfig MakePipelineConfig(const WorkloadSpec& spec);

enum class PointOp : uint8_t {
  kAtPosition,
  kCellType,
  kCellRouteType,
  kSegmentsAt,
  kEta,
};

struct PointQuery {
  PointOp op = PointOp::kAtPosition;
  geo::LatLng position;
  ais::MarketSegment segment = ais::MarketSegment::kOther;
  sim::PortId origin = sim::kNoPort;
  sim::PortId destination = sim::kNoPort;
};

struct ForecastQuery {
  geo::LatLng position;
  sim::PortId origin = sim::kNoPort;
  sim::PortId destination = sim::kNoPort;
  ais::MarketSegment segment = ais::MarketSegment::kOther;
};

struct Inputs {
  std::vector<ais::VesselInfo> fleet;
  std::vector<ais::PositionReport> base;
  std::vector<std::vector<ais::PositionReport>> deltas;
  std::vector<PointQuery> queries;
  // `spec.forecasts` queries cycling over the eligible voyages.
  std::vector<ForecastQuery> forecasts;
  size_t archive_reports = 0;
  size_t eligible_voyages = 0;
  double sim_seconds = 0.0;  // FleetSimulator::Run alone.
};

// Deterministic in (spec, seed): the archive comes from
// spec.world_seed, the point queries and the forecast draw from `seed`.
Inputs Setup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace lcb

#endif  // LIFECYCLE_BENCH_WORKLOADS_H_
