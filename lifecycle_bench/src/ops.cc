#include "ops.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/cell_summary.h"
#include "core/group_key.h"
#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"

namespace lcb {
namespace {

namespace core = pol::core;
namespace hex = pol::hex;

std::string Bytes(const core::CellSummary* summary) {
  if (summary == nullptr) return "<absent>";
  std::string out;
  summary->Serialize(&out);
  return out;
}

}  // namespace

bool RunPointQuery(const core::InventoryQuery& inventory,
                   const pol::uc::EtaEstimator& eta, const PointQuery& query,
                   int resolution, uint64_t* sink) {
  const core::CellSummary* summary = nullptr;
  switch (query.op) {
    case PointOp::kAtPosition:
      summary = inventory.AtPosition(query.position);
      break;
    case PointOp::kCellType:
      summary = inventory.CellType(
          hex::LatLngToCell(query.position, resolution), query.segment);
      break;
    case PointOp::kCellRouteType:
      summary = inventory.CellRouteType(
          hex::LatLngToCell(query.position, resolution), query.origin,
          query.destination, query.segment);
      break;
    case PointOp::kSegmentsAt: {
      const std::vector<pol::ais::MarketSegment> segments =
          inventory.SegmentsAt(hex::LatLngToCell(query.position, resolution));
      *sink += segments.size();
      return !segments.empty();
    }
    case PointOp::kEta: {
      const pol::Result<pol::uc::EtaEstimate> estimate = eta.Estimate(
          query.position, query.segment, query.origin, query.destination);
      if (!estimate.ok()) return false;
      *sink += estimate->support;
      return true;
    }
  }
  if (summary == nullptr) return false;
  *sink += summary->record_count();
  return true;
}

RecordTotals TotalsOf(const core::PipelineResult& result) {
  return RecordTotals{result.aggregated_records, result.trips.annotated};
}

void AddTotals(const RecordTotals& more, RecordTotals* totals) {
  totals->cell_records += more.cell_records;
  totals->in_trip_records += more.in_trip_records;
}

uint64_t ScanResult::total() const {
  uint64_t sum = 0;
  for (const uint64_t n : summaries) sum += n;
  return sum;
}

ScanResult ScanAllSets(const core::InventoryQuery& inventory) {
  ScanResult result;
  for (int s = 0; s < core::kNumGroupingSets; ++s) {
    const auto set_index = static_cast<size_t>(s);
    bool first = true;
    uint64_t last_cell = 0;
    uint64_t last_dims = 0;
    inventory.VisitGroupingSet(
        static_cast<core::GroupingSet>(s),
        [&](const core::GroupKey& key, const core::CellSummary& summary) {
          const uint64_t dims = core::GroupKeyDimsPacked(key);
          if (!first && !(last_cell < key.cell ||
                          (last_cell == key.cell && last_dims < dims))) {
            result.ascending = false;
          }
          first = false;
          last_cell = key.cell;
          last_dims = dims;
          ++result.summaries[set_index];
          result.records[set_index] += summary.record_count();
        });
  }
  return result;
}

void CheckLaws(const ScanResult& scan, const RecordTotals& expected,
               const std::string& where, Outcome* outcome) {
  const auto text = [](uint64_t n) { return std::to_string(n); };
  outcome->Check(scan.records[1] == scan.records[0],
                 where + ": sum over (cell, type) " + text(scan.records[1]) +
                     " != sum over (cell) " + text(scan.records[0]));
  outcome->Check(scan.records[0] == expected.cell_records,
                 where + ": sum over (cell) " + text(scan.records[0]) +
                     " != records folded " + text(expected.cell_records));
  outcome->Check(scan.records[2] == expected.in_trip_records,
                 where + ": sum over (cell, o, d, type) " +
                     text(scan.records[2]) + " != in-trip records " +
                     text(expected.in_trip_records));
}

void CheckScanShape(const ScanResult& scan,
                    const core::InventorySnapshot& snapshot,
                    const std::string& where, Outcome* outcome) {
  outcome->Check(scan.ascending, where + ": scan keys not ascending");
  for (size_t s = 0; s < scan.summaries.size(); ++s) {
    outcome->Check(
        scan.summaries[s] == snapshot.stats().summaries_per_set[s],
        where + ": set " + std::to_string(s) + " scan visited " +
            std::to_string(scan.summaries[s]) + " of " +
            std::to_string(snapshot.stats().summaries_per_set[s]));
  }
}

void CheckMappedMatchesHeap(const core::InventorySnapshot& heap,
                            const core::InventorySnapshot& mapped,
                            const Inputs& inputs, int resolution,
                            Outcome* outcome) {
  size_t mismatches = 0;
  const auto expect = [&](bool same, const std::string& what) {
    if (same) return;
    if (++mismatches <= kMaxReported) {
      outcome->Check(false, "mapped != heap: " + what);
    }
  };
  expect(heap.size() == mapped.size(), "size");
  expect(heap.DistinctCells() == mapped.DistinctCells(), "distinct cells");
  // The sample: every 16th point query (the queries are seeded draws).
  for (size_t i = 0; i < inputs.queries.size(); i += 16) {
    const PointQuery& query = inputs.queries[i];
    const hex::CellIndex cell = hex::LatLngToCell(query.position, resolution);
    expect(Bytes(heap.Cell(cell)) == Bytes(mapped.Cell(cell)),
           "Cell " + std::to_string(cell));
    const std::vector<pol::ais::MarketSegment> segments = heap.SegmentsAt(cell);
    expect(segments == mapped.SegmentsAt(cell),
           "SegmentsAt " + std::to_string(cell));
    for (const pol::ais::MarketSegment segment : segments) {
      expect(Bytes(heap.CellType(cell, segment)) ==
                 Bytes(mapped.CellType(cell, segment)),
             "CellType " + std::to_string(cell));
    }
    expect(Bytes(heap.CellRouteType(cell, query.origin, query.destination,
                                    query.segment)) ==
               Bytes(mapped.CellRouteType(cell, query.origin,
                                          query.destination, query.segment)),
           "CellRouteType " + std::to_string(cell));
    if (i % 64 == 0) {
      expect(heap.CellsForRoute(query.origin, query.destination,
                                query.segment) ==
                 mapped.CellsForRoute(query.origin, query.destination,
                                      query.segment),
             "CellsForRoute of a query route");
    }
  }
  for (const ForecastQuery& forecast : inputs.forecasts) {
    expect(heap.CellsForRoute(forecast.origin, forecast.destination,
                              forecast.segment) ==
               mapped.CellsForRoute(forecast.origin, forecast.destination,
                                    forecast.segment),
           "CellsForRoute of a forecast route");
  }
}

void CheckAtPosition(const core::InventoryQuery& served,
                     const core::Inventory& built, const Inputs& inputs,
                     int resolution, Outcome* outcome) {
  size_t wrong = 0;
  for (size_t i = 0; i < inputs.queries.size(); i += 16) {
    const pol::geo::LatLng& position = inputs.queries[i].position;
    const std::string answer = Bytes(served.AtPosition(position));
    const std::string expected =
        Bytes(built.Cell(hex::LatLngToCell(position, resolution)));
    if (answer != expected && ++wrong <= kMaxReported) {
      outcome->Check(false, "AtPosition" + position.ToString() +
                                " does not answer with its key cell's "
                                "summary in the built inventory");
    }
  }
}

std::string ForecastProblem(const pol::uc::RouteForecast& forecast,
                            const ForecastQuery& query,
                            const core::InventoryQuery& inventory) {
  if (forecast.cells.empty()) return "empty forecast path";
  const std::vector<hex::CellIndex> route = inventory.CellsForRoute(
      query.origin, query.destination, query.segment);
  const std::unordered_set<hex::CellIndex> route_cells(route.begin(),
                                                       route.end());
  for (const hex::CellIndex cell : forecast.cells) {
    if (route_cells.count(cell) == 0) {
      return "forecast uses cell " + std::to_string(cell) +
             " outside its route key";
    }
  }
  const int resolution = inventory.resolution();
  const hex::CellIndex own = hex::LatLngToCell(query.position, resolution);
  if (route_cells.count(own) != 0) {
    if (forecast.cells.front() != own) {
      return "forecast does not start in the query position's cell";
    }
  } else {
    // RouteForecaster snaps an off-route position to the nearest route
    // cell within five edge lengths.
    const double snap_km = hex::EdgeLengthKm(resolution) * 5.0;
    if (pol::geo::HaversineKm(query.position,
                              hex::CellToLatLng(forecast.cells.front())) >
        snap_km + 1e-6) {
      return "forecast starts outside the snap radius of its position";
    }
  }
  return "";
}

}  // namespace lcb
