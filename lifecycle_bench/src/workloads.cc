#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/time_util.h"
#include "sim/fleet.h"
#include "util.h"

namespace lcb {
namespace {

using pol::kSecondsPerDay;
using pol::Rng;
using pol::UnixSeconds;

constexpr UnixSeconds kArchiveStart = 1640995200;  // 2022-01-01 UTC.
// Share of point queries at uniform global positions (mostly misses).
// This share and the operation shares in DrawOp are assumptions, not
// measurements; README.md ("Inputs and seeds") gives the reason for each.
constexpr double kUniformShare = 0.10;
// Port-stop reports kept after a delta voyage's arrival.
constexpr UnixSeconds kPortMargin = 6 * 3600;

WorkloadSpec BuildWorkload(bool smoke) {
  WorkloadSpec spec;
  spec.name = "build";
  spec.resolution = 6;
  spec.threads = 3;
  if (smoke) {
    spec.commercial_vessels = 16;
    spec.noncommercial_vessels = 8;
    spec.days = 30;
    spec.delta_days = 2;
  } else {
    // Four times the quickstart world (40 + 20 vessels, 60 days).
    spec.commercial_vessels = 160;
    spec.noncommercial_vessels = 80;
    spec.days = 60;
    spec.delta_days = 2;
  }
  spec.build_reps = 2;
  spec.point_queries = smoke ? 5000 : 200000;
  spec.rounds_per_second = 1.2;
  spec.forecasts = 400;
  return spec;
}

WorkloadSpec ServeWorkload(bool smoke) {
  WorkloadSpec spec;
  spec.name = "serve";
  spec.resolution = 7;
  spec.threads = 3;
  if (smoke) {
    spec.commercial_vessels = 16;
    spec.noncommercial_vessels = 4;
    spec.days = 30;
    spec.delta_days = 1;
  } else {
    // A resolution-7 inventory of about half a million summaries.
    spec.commercial_vessels = 170;
    spec.noncommercial_vessels = 30;
    spec.days = 60;
    spec.delta_days = 1;
  }
  spec.point_queries = smoke ? 5000 : 200000;
  spec.rounds_per_second = 1.2;
  spec.forecasts = 480;
  return spec;
}

WorkloadSpec RefreshWorkload(bool smoke) {
  WorkloadSpec spec;
  spec.name = "refresh";
  spec.resolution = 6;
  spec.threads = 2;
  if (smoke) {
    spec.commercial_vessels = 12;
    spec.noncommercial_vessels = 6;
    spec.days = 34;
    spec.delta_days = 4;
  } else {
    // The quickstart world as the base, then twelve daily deltas.
    spec.commercial_vessels = 40;
    spec.noncommercial_vessels = 20;
    spec.days = 72;
    spec.delta_days = 12;
  }
  spec.build_reps = 3;
  spec.publish_reps = 3;
  spec.point_queries = smoke ? 5000 : 200000;
  spec.rounds_per_second = 1.6;
  spec.forecasts = 400;
  spec.cold_start_refresh = true;
  return spec;
}

bool ValidPosition(const ais::PositionReport& report) {
  return std::abs(report.lat_deg) <= 90.0 && std::abs(report.lng_deg) <= 180.0;
}

PointOp DrawOp(Rng& rng) {
  const double u = rng.NextDouble();
  if (u < 0.30) return PointOp::kAtPosition;
  if (u < 0.50) return PointOp::kCellType;
  if (u < 0.70) return PointOp::kCellRouteType;
  if (u < 0.85) return PointOp::kSegmentsAt;
  return PointOp::kEta;
}

}  // namespace

bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  if (name == "build") {
    *spec = BuildWorkload(smoke);
  } else if (name == "serve") {
    *spec = ServeWorkload(smoke);
  } else if (name == "refresh") {
    *spec = RefreshWorkload(smoke);
  } else {
    return false;
  }
  if (smoke) {
    spec->setup_reps = 2;
    spec->build_reps = std::min(spec->build_reps, 2);
    spec->publish_reps = std::min(spec->publish_reps, 2);
    spec->open_reps = 2;
    spec->forecasts = 100;
    spec->checked_forecasts = 20;
    spec->min_forecast_km = 1000.0;
    spec->min_voyage_reports = 20;
  }
  return true;
}

core::PipelineConfig MakePipelineConfig(const WorkloadSpec& spec) {
  core::PipelineConfig config;
  config.resolution = spec.resolution;
  config.threads = spec.threads;
  config.partitions = spec.partitions;
  config.chunks = spec.chunks;
  config.commercial_only = true;
  return config;
}

Inputs Setup(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  sim::FleetConfig fleet_config;
  fleet_config.seed = spec.world_seed;
  fleet_config.commercial_vessels = spec.commercial_vessels;
  fleet_config.noncommercial_vessels = spec.noncommercial_vessels;
  fleet_config.start_time = kArchiveStart;
  fleet_config.end_time = kArchiveStart + spec.days * kSecondsPerDay;
  const double sim_start = Now();
  sim::SimulationOutput archive = sim::FleetSimulator(fleet_config).Run();
  inputs.sim_seconds = Now() - sim_start;
  inputs.archive_reports = archive.reports.size();
  inputs.fleet = archive.fleet;

  // Per-vessel report indices in time order, segments and voyages.
  std::unordered_map<ais::Mmsi, std::vector<uint32_t>> by_vessel;
  for (uint32_t i = 0; i < archive.reports.size(); ++i) {
    by_vessel[archive.reports[i].mmsi].push_back(i);
  }
  for (auto& [mmsi, indices] : by_vessel) {
    std::stable_sort(indices.begin(), indices.end(),
                     [&archive](uint32_t a, uint32_t b) {
                       return archive.reports[a].timestamp <
                              archive.reports[b].timestamp;
                     });
  }
  std::unordered_map<ais::Mmsi, ais::MarketSegment> segments;
  for (const ais::VesselInfo& vessel : archive.fleet) {
    segments[vessel.mmsi] = vessel.segment;
  }
  std::unordered_map<ais::Mmsi, std::vector<const sim::VoyageTruth*>> voyages;
  for (const sim::VoyageTruth& voyage : archive.voyages) {
    voyages[voyage.mmsi].push_back(&voyage);
  }
  for (auto& [mmsi, list] : voyages) {
    std::sort(list.begin(), list.end(),
              [](const sim::VoyageTruth* a, const sim::VoyageTruth* b) {
                return a->arrival < b->arrival;
              });
  }

  // Base = every report before the first delta day. Delta k = the
  // voyages that arrive on day k, each with its vessel's reports from
  // the previous arrival to kPortMargin after this one, so the trip
  // stage sees the whole leg between its port stops. (A plain day slice
  // would fold almost nothing: the trip stage drops open legs.)
  // Vessels without voyages contribute their day-k reports.
  const UnixSeconds base_end =
      kArchiveStart + (spec.days - spec.delta_days) * kSecondsPerDay;
  for (const ais::PositionReport& report : archive.reports) {
    if (report.timestamp < base_end) inputs.base.push_back(report);
  }
  inputs.deltas.resize(static_cast<size_t>(spec.delta_days));
  const auto delta_day = [&](UnixSeconds t) -> int64_t {
    return t < base_end ? -1 : (t - base_end) / kSecondsPerDay;
  };
  for (const auto& [mmsi, indices] : by_vessel) {
    const auto own = voyages.find(mmsi);
    if (own == voyages.end()) {
      for (const uint32_t index : indices) {
        const int64_t day = delta_day(archive.reports[index].timestamp);
        if (day >= 0 && day < spec.delta_days) {
          inputs.deltas[static_cast<size_t>(day)].push_back(
              archive.reports[index]);
        }
      }
      continue;
    }
    UnixSeconds previous_arrival = kArchiveStart - 1;
    for (const sim::VoyageTruth* voyage : own->second) {
      const int64_t day = delta_day(voyage->arrival);
      if (day >= 0 && day < spec.delta_days) {
        std::vector<ais::PositionReport>& delta =
            inputs.deltas[static_cast<size_t>(day)];
        for (const uint32_t index : indices) {
          const ais::PositionReport& report = archive.reports[index];
          if (report.timestamp > previous_arrival &&
              report.timestamp <= voyage->arrival + kPortMargin) {
            delta.push_back(report);
          }
        }
      }
      previous_arrival = voyage->arrival;
    }
  }

  Rng rng(seed ^ 0x6c6966656379636cULL);
  const auto random_voyage = [&]() -> const sim::VoyageTruth* {
    if (archive.voyages.empty()) return nullptr;
    return &archive.voyages[rng.NextBelow(archive.voyages.size())];
  };

  // Point queries: positions of the archive's own reports (traffic
  // density), plus a fixed share of uniform global points.
  inputs.queries.reserve(spec.point_queries);
  while (inputs.queries.size() < spec.point_queries) {
    PointQuery query;
    query.op = DrawOp(rng);
    const sim::VoyageTruth* voyage = nullptr;
    if (rng.NextDouble() < kUniformShare || archive.reports.empty()) {
      const double lat =
          std::asin(rng.Uniform(-1.0, 1.0)) * 180.0 / std::numbers::pi;
      query.position = {lat, rng.Uniform(-180.0, 180.0)};
      query.segment = static_cast<ais::MarketSegment>(rng.NextBelow(4));
      voyage = random_voyage();
    } else {
      const ais::PositionReport& report =
          archive.reports[rng.NextBelow(archive.reports.size())];
      if (!ValidPosition(report)) continue;
      query.position = {report.lat_deg, report.lng_deg};
      const auto segment = segments.find(report.mmsi);
      if (segment != segments.end()) query.segment = segment->second;
      const auto own = voyages.find(report.mmsi);
      if (own != voyages.end()) {
        for (const sim::VoyageTruth* candidate : own->second) {
          if (candidate->departure <= report.timestamp &&
              report.timestamp <= candidate->arrival) {
            voyage = candidate;
            break;
          }
        }
      }
      if (voyage == nullptr) voyage = random_voyage();
    }
    if (voyage != nullptr) {
      query.origin = voyage->origin;
      query.destination = voyage->destination;
    }
    inputs.queries.push_back(query);
  }

  // Forecasts start one third of the way into long voyages that the
  // base inventory recorded in full.
  std::vector<ForecastQuery> eligible;
  for (const sim::VoyageTruth& voyage : archive.voyages) {
    if (voyage.arrival >= base_end ||
        voyage.distance_km < spec.min_forecast_km) {
      continue;
    }
    const auto vessel = by_vessel.find(voyage.mmsi);
    if (vessel == by_vessel.end()) continue;
    std::vector<const ais::PositionReport*> during;
    for (const uint32_t index : vessel->second) {
      const ais::PositionReport& report = archive.reports[index];
      if (report.timestamp >= voyage.departure &&
          report.timestamp <= voyage.arrival && ValidPosition(report)) {
        during.push_back(&report);
      }
    }
    if (during.size() < spec.min_voyage_reports) continue;
    const ais::PositionReport& start = *during[during.size() / 3];
    ForecastQuery query;
    query.position = {start.lat_deg, start.lng_deg};
    query.origin = voyage.origin;
    query.destination = voyage.destination;
    const auto segment = segments.find(voyage.mmsi);
    if (segment != segments.end()) query.segment = segment->second;
    eligible.push_back(query);
  }
  inputs.eligible_voyages = eligible.size();
  for (size_t i = eligible.size(); i > 1; --i) {
    std::swap(eligible[i - 1], eligible[rng.NextBelow(i)]);
  }
  if (!eligible.empty()) {
    for (size_t i = 0; i < spec.forecasts; ++i) {
      inputs.forecasts.push_back(eligible[i % eligible.size()]);
    }
  }
  return inputs;
}

}  // namespace lcb
