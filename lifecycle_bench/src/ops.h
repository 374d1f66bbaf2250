#ifndef LIFECYCLE_BENCH_OPS_H_
#define LIFECYCLE_BENCH_OPS_H_

#include <array>
#include <cstdint>
#include <string>

#include "core/inventory.h"
#include "core/inventory_query.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "usecases/eta.h"
#include "usecases/route_forecast.h"
#include "util.h"
#include "workloads.h"

// The operations both runs issue against the program, and the output
// checks. The checks test laws the method must obey (nested grouping
// sets, conservation across refreshes, mapped == in-heap answers,
// key order), never a stored copy of earlier output.

namespace lcb {

// Failed checks of one kind reported before the rest are only counted.
inline constexpr size_t kMaxReported = 5;

// One point query of the mix. True when the inventory had an answer;
// `sink` accumulates something of every answer so no call is elided.
bool RunPointQuery(const pol::core::InventoryQuery& inventory,
                   const pol::uc::EtaEstimator& eta, const PointQuery& query,
                   int resolution, uint64_t* sink);

// One pass of VisitGroupingSet over every grouping set.
struct ScanResult {
  std::array<uint64_t, pol::core::kNumGroupingSets> summaries{};
  std::array<uint64_t, pol::core::kNumGroupingSets> records{};
  bool ascending = true;  // Keys in strictly ascending (cell, dims) order.
  uint64_t total() const;
};
ScanResult ScanAllSets(const pol::core::InventoryQuery& inventory);

// Expected record totals of an inventory: records folded into (cell)
// summaries, and in-trip records (the (cell, o, d, type) total).
struct RecordTotals {
  uint64_t cell_records = 0;
  uint64_t in_trip_records = 0;
};
RecordTotals TotalsOf(const pol::core::PipelineResult& result);
void AddTotals(const RecordTotals& more, RecordTotals* totals);

// Nested grouping-set laws and conservation: Σ(cell, type) = Σ(cell) =
// expected records, Σ(cell, o, d, type) = expected in-trip records.
void CheckLaws(const ScanResult& scan, const RecordTotals& expected,
               const std::string& where, Outcome* outcome);

// A scan visits exactly stats().summaries_per_set, in ascending order.
void CheckScanShape(const ScanResult& scan,
                    const pol::core::InventorySnapshot& snapshot,
                    const std::string& where, Outcome* outcome);

// The cold-opened mapped snapshot answers exactly as the in-heap sealed
// snapshot of the same inventory on a seeded sample: summaries
// serialize to the same bytes, segment lists and route cell lists
// match.
void CheckMappedMatchesHeap(const pol::core::InventorySnapshot& heap,
                            const pol::core::InventorySnapshot& mapped,
                            const Inputs& inputs, int resolution,
                            Outcome* outcome);

// The served AtPosition(p) answers with the summary that the in-heap
// build-side inventory holds under key cell LatLngToCell(p, res):
// the same bytes, or no answer from either, on a seeded sample.
void CheckAtPosition(const pol::core::InventoryQuery& served,
                     const pol::core::Inventory& built, const Inputs& inputs,
                     int resolution, Outcome* outcome);

// A produced forecast starts in the query position's cell (or, when
// that cell is off the route, at a route cell within the forecaster's
// snap radius) and uses only cells of its route key. Returns the empty
// string when the forecast is well formed, else what is wrong.
std::string ForecastProblem(const pol::uc::RouteForecast& forecast,
                            const ForecastQuery& query,
                            const pol::core::InventoryQuery& inventory);

}  // namespace lcb

#endif  // LIFECYCLE_BENCH_OPS_H_
