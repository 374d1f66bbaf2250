// The traced run: the same five phases as RunLifecycle, but the build
// drives the pipeline's stage functions one chunk at a time and every
// call into a layer sits inside a span. Prints the per-layer metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stop_token>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cleaning.h"
#include "core/enrich.h"
#include "core/extractor.h"
#include "core/geofence.h"
#include "core/inventory_builder.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "core/serving_inventory.h"
#include "core/snapshot_codec.h"
#include "core/trips.h"
#include "counting_alloc.h"
#include "flow/dataset.h"
#include "flow/threadpool.h"
#include "hexgrid/hexgrid.h"
#include "lifecycle.h"
#include "ops.h"
#include "sim/ports.h"
#include "spans.h"
#include "store/snapshot_store.h"
#include "usecases/eta.h"
#include "usecases/route_forecast.h"

namespace lcb {
namespace {

namespace ais = pol::ais;
namespace core = pol::core;
namespace flow = pol::flow;
namespace hex = pol::hex;
namespace store = pol::store;
namespace uc = pol::uc;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
// Summaries sampled for the per-summary size and decode metrics.
constexpr size_t kSummarySample = 20000;
// Distinct present cells whose first (materializing) lookup is timed.
constexpr size_t kFirstTouchCells = 2000;
// Timed scan passes after the decoding first pass.
constexpr int kScanPasses = 5;

// Record count and mean speed of one cell, recomputed by the benchmark
// from the projected records it handed to InventoryBuilder::Fold.
struct CellTruth {
  uint64_t records = 0;
  uint64_t speeds = 0;
  double speed_sum = 0.0;
};

// A seeded sample of about 1/256 of all cells, chosen by a hash of the
// cell id so every record of a sampled cell is seen.
class CellSample {
 public:
  explicit CellSample(uint64_t seed) : seed_(seed) {}

  void Observe(const flow::Dataset<core::PipelineRecord>& projected) {
    for (int p = 0; p < projected.num_partitions(); ++p) {
      for (const core::PipelineRecord& record : projected.partition(p)) {
        if (record.cell == hex::kInvalidCell) continue;
        uint64_t state = record.cell ^ seed_;
        if ((pol::SplitMix64(state) & 255) != 0) continue;
        CellTruth& truth = cells_[record.cell];
        ++truth.records;
        if (record.sog_knots < ais::kSogUnavailable) {
          ++truth.speeds;
          truth.speed_sum += record.sog_knots;
        }
      }
    }
  }

  void Check(const core::Inventory& inventory, Outcome* outcome) const {
    size_t wrong = 0;
    for (const auto& [cell, truth] : cells_) {
      const core::CellSummary* summary = inventory.Cell(cell);
      std::string problem;
      if (summary == nullptr) {
        problem = "missing";
      } else if (summary->record_count() != truth.records) {
        problem = "record_count " + std::to_string(summary->record_count()) +
                  " != recomputed " + std::to_string(truth.records);
      } else if (truth.speeds > 0) {
        const double mean = truth.speed_sum / static_cast<double>(truth.speeds);
        const double got = summary->speed().Mean();
        if (summary->speed().count() != truth.speeds ||
            std::abs(got - mean) > 1e-9 * std::max(1.0, std::abs(mean))) {
          problem = "mean speed " + FormatNumber(got) + " != recomputed " +
                    FormatNumber(mean);
        }
      }
      if (!problem.empty() && ++wrong <= kMaxReported) {
        outcome->Check(false, "cell " + std::to_string(cell) + ": " + problem);
      }
    }
    outcome->Check(!cells_.empty(), "recompute sample holds no cell");
  }

  size_t size() const { return cells_.size(); }

 private:
  uint64_t seed_;
  std::unordered_map<hex::CellIndex, CellTruth> cells_;
};

double PerSecond(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

}  // namespace

Outcome RunTraced(const WorkloadSpec& spec, const RunOptions& options) {
  Outcome outcome;
  SpanRecorder spans;
  const fs::path work(options.work_dir);
  const std::string store_dir = (work / "store").string();
  const std::string cold_dir = (work / "cold_store").string();
  fs::remove_all(store_dir);
  fs::remove_all(cold_dir);
  fs::create_directories(store_dir);
  fs::create_directories(cold_dir);
  const int res = spec.resolution;
  uint64_t sink = 0;

  // --- Set-up. ---
  Inputs inputs;
  {
    ScopedSpan span(&spans, "setup");
    inputs = Setup(spec, options.seed);
  }
  ++outcome.attempted;
  outcome.Check(!inputs.forecasts.empty(),
                "no recorded voyage qualifies for a forecast");
  outcome.Add("sim.reports_per_s",
              PerSecond(static_cast<double>(inputs.archive_reports),
                        inputs.sim_seconds),
              "1/s");

  // --- Reference builds through RunPipeline (no spans inside). ---
  const core::PipelineConfig config = MakePipelineConfig(spec);
  {
    const double cpu_start = CpuSeconds();
    const double start = Now();
    const core::PipelineResult result =
        core::RunPipeline(inputs.base, inputs.fleet, config);
    const double wall = Now() - start;
    const double cpu = CpuSeconds() - cpu_start;
    ++outcome.attempted;
    outcome.Check(result.status.ok(), "reference build: " +
                                          result.status.ToString());
    double stage_sum = 0.0;
    for (const flow::StageMetrics& stage : result.stage_metrics) {
      stage_sum += stage.wall_seconds;
    }
    outcome.Add("flow.effective_cores", cpu / wall, "cores");
    outcome.Add("flow.stage_overlap", stage_sum / result.wall_seconds, "ratio");
  }
  // The same build with one chunk in flight: the untraced twin of the
  // chunk-at-a-time traced drive below, and its byte-identity reference.
  // It runs once before the drive and once after, so the heap's age
  // weighs on the untraced time as on the traced one.
  core::PipelineConfig serial = config;
  serial.max_in_flight_chunks = 1;
  std::string reference_bytes;
  std::vector<double> reference_walls;
  RecordTotals totals;
  {
    const double start = Now();
    const core::PipelineResult result =
        core::RunPipeline(inputs.base, inputs.fleet, serial);
    reference_walls.push_back(Now() - start);
    ++outcome.attempted;
    totals = TotalsOf(result);
    result.inventory->SerializeTo(&reference_bytes);
  }
  const uint64_t base_cell_records = totals.cell_records;

  // --- Traced build: stage functions one chunk at a time. ---
  double cleaning_in = 0.0;
  double trips_in = 0.0;
  double extraction_in = 0.0;
  uint64_t fold_allocations = 0;
  int64_t fold_peak_bytes = 0;
  uint64_t in_trip_records = 0;
  CellSample sample(options.seed);
  std::unique_ptr<core::Inventory> base;
  double drive_wall = 0.0;
  {
    alloc::Enable();
    const double start = Now();
    ScopedSpan build_span(&spans, "build");
    flow::ThreadPool pool(spec.threads);
    core::CleaningConfig cleaning_config;
    cleaning_config.partitions = config.partitions;
    cleaning_config.max_speed_knots = config.max_speed_knots;
    const core::Enricher enricher(inputs.fleet);
    const core::Geofencer geofencer(&pol::sim::PortDatabase::Global(),
                                    config.geofence_resolution);
    core::ExtractorConfig extractor_config = config.extractor;
    extractor_config.resolution = res;
    core::InventoryBuilder builder(extractor_config);
    std::vector<flow::Dataset<ais::PositionReport>> chunks;
    {
      ScopedSpan span(&spans, "split");
      chunks = core::SplitReportsByVessel(inputs.base, config.partitions,
                                          config.chunks, &pool);
    }
    for (flow::Dataset<ais::PositionReport>& chunk : chunks) {
      ScopedSpan chunk_span(&spans, "chunk");
      core::CleaningStats cleaning_stats;
      core::EnrichmentStats enrichment_stats;
      core::TripStats trip_stats;
      cleaning_in += static_cast<double>(chunk.Count());
      const flow::Dataset<core::PipelineRecord> cleaned = [&] {
        ScopedSpan span(&spans, "cleaning");
        return core::CleanChunk(chunk, cleaning_config, &cleaning_stats);
      }();
      chunk = flow::Dataset<ais::PositionReport>(
          std::vector<std::vector<ais::PositionReport>>(1), &pool);
      const flow::Dataset<core::PipelineRecord> enriched = [&] {
        ScopedSpan span(&spans, "enrichment");
        return enricher.Enrich(cleaned, config.commercial_only,
                               &enrichment_stats);
      }();
      trips_in += static_cast<double>(enriched.Count());
      const flow::Dataset<core::PipelineRecord> tripped = [&] {
        ScopedSpan span(&spans, "trips");
        return core::ExtractTrips(enriched, geofencer, &trip_stats);
      }();
      in_trip_records += trip_stats.annotated;
      const flow::Dataset<core::PipelineRecord> projected = [&] {
        ScopedSpan span(&spans, "projection");
        return core::ProjectToGrid(tripped, res);
      }();
      sample.Observe(projected);
      extraction_in += static_cast<double>(projected.Count());
      alloc::ResetPeak();
      const uint64_t allocations_before = alloc::Allocations();
      {
        ScopedSpan span(&spans, "extraction");
        builder.Fold(projected);
      }
      fold_allocations += alloc::Allocations() - allocations_before;
      fold_peak_bytes = std::max(fold_peak_bytes, alloc::PeakBytes());
    }
    base = std::make_unique<core::Inventory>(std::move(builder).Finish());
    drive_wall = Now() - start;
    alloc::Disable();
  }
  ++outcome.attempted;
  outcome.Check(in_trip_records == totals.in_trip_records,
                "traced build saw " + std::to_string(in_trip_records) +
                    " in-trip records, RunPipeline " +
                    std::to_string(totals.in_trip_records));
  {
    std::string traced_bytes;
    base->SerializeTo(&traced_bytes);
    outcome.Check(traced_bytes == reference_bytes,
                  "traced build is not byte-identical to RunPipeline's");
  }
  reference_bytes = std::string();
  sample.Check(*base, &outcome);
  {
    const double start = Now();
    const core::PipelineResult result =
        core::RunPipeline(inputs.base, inputs.fleet, serial);
    reference_walls.push_back(Now() - start);
    ++outcome.attempted;
    outcome.Check(result.status.ok(), "second reference build: " +
                                          result.status.ToString());
  }

  const double cleaning_s = spans.Total("cleaning");
  const double enrichment_s = spans.Total("enrichment");
  const double trips_s = spans.Total("trips");
  const double projection_s = spans.Total("projection");
  const double extraction_s = spans.Total("extraction");
  const double stages_s =
      cleaning_s + enrichment_s + trips_s + projection_s + extraction_s;
  outcome.Add("cleaning.s", cleaning_s, "s");
  outcome.Add("cleaning.records_per_s", PerSecond(cleaning_in, cleaning_s),
              "1/s");
  outcome.Add("enrichment.s", enrichment_s, "s");
  outcome.Add("trips.s", trips_s, "s");
  outcome.Add("trips.records_per_s", PerSecond(trips_in, trips_s), "1/s");
  outcome.Add("projection.s", projection_s, "s");
  outcome.Add("extraction.s", extraction_s, "s");
  outcome.Add("extraction.records_per_s",
              PerSecond(extraction_in, extraction_s), "1/s");
  outcome.Add("extraction.share", extraction_s / stages_s, "ratio");
  outcome.Add("extraction.summaries", static_cast<double>(base->size()),
              "count");
  outcome.Add("extraction.records_per_summary",
              extraction_in / static_cast<double>(base->size()), "ratio");
  outcome.Add("extraction.peak_heap_mb",
              static_cast<double>(fold_peak_bytes) / kMiB, "MB");
  outcome.Add("extraction.allocs_per_record",
              static_cast<double>(fold_allocations) / extraction_in, "ratio");

  // --- Summaries: heap footprint, encoded size, decode cost. ---
  {
    ScopedSpan span(&spans, "summary.sample");
    const size_t stride = std::max<size_t>(1, base->size() / kSummarySample);
    std::vector<std::string> encoded;
    double footprint = 0.0;
    size_t index = 0;
    for (int s = 0; s < core::kNumGroupingSets; ++s) {
      base->VisitGroupingSet(
          static_cast<core::GroupingSet>(s),
          [&](const core::GroupKey&, const core::CellSummary& summary) {
            if (index++ % stride != 0) return;
            footprint += static_cast<double>(summary.MemoryFootprint());
            encoded.emplace_back();
            summary.Serialize(&encoded.back());
          });
    }
    double encoded_bytes = 0.0;
    for (const std::string& bytes : encoded) {
      encoded_bytes += static_cast<double>(bytes.size());
    }
    const double start = Now();
    for (const std::string& bytes : encoded) {
      core::CellSummary summary;
      std::string_view view(bytes);
      if (summary.Deserialize(&view).ok()) sink += summary.record_count();
    }
    const double decode_s = Now() - start;
    const auto n = static_cast<double>(encoded.size());
    outcome.Add("summary.heap_bytes_mean", footprint / n, "B");
    outcome.Add("summary.encoded_bytes_mean", encoded_bytes / n, "B");
    outcome.Add("summary.deserialize_ns", decode_s * 1e9 / n, "ns");
  }

  // --- Publish: Seal, EncodeTo, SnapshotStore::Publish. ---
  store::SnapshotStore durable({store_dir, kKeepGenerations});
  std::shared_ptr<const core::InventorySnapshot> sealed;
  {
    ScopedSpan publish_span(&spans, "publish");
    std::string image;
    {
      ScopedSpan span(&spans, "seal");
      sealed = base->Seal();
    }
    {
      ScopedSpan span(&spans, "encode");
      sealed->EncodeTo(&image);
    }
    pol::Result<uint64_t> generation = pol::Status::Internal("unpublished");
    {
      ScopedSpan span(&spans, "store.publish");
      generation = durable.Publish(image);
    }
    ++outcome.attempted;
    if (!generation.ok()) {
      ++outcome.failed;
      outcome.Check(false, "publish: " + generation.status().ToString());
      return outcome;
    }
    if (spec.cold_start_refresh) {
      const fs::path file(durable.GenerationPath(*generation));
      fs::copy_file(file, fs::path(cold_dir) / file.filename());
    }
    const double image_mb = static_cast<double>(image.size()) / kMiB;
    const double seal_s = spans.Total("seal");
    const double encode_s = spans.Total("encode");
    const double publish_s = spans.Total("store.publish");
    outcome.Add("seal.s", seal_s, "s");
    outcome.Add("seal.summaries_per_s",
                PerSecond(static_cast<double>(sealed->size()), seal_s), "1/s");
    outcome.Add("encode.s", encode_s, "s");
    outcome.Add("encode.mb_per_s", PerSecond(image_mb, encode_s), "MB/s");
    outcome.Add("store.publish_s", publish_s, "s");
    outcome.Add("store.publish_mb_per_s", PerSecond(image_mb, publish_s),
                "MB/s");
  }
  {
    const ScanResult scan = ScanAllSets(*sealed);
    CheckScanShape(scan, *sealed, "sealed base", &outcome);
    CheckLaws(scan, totals, "sealed base", &outcome);
  }

  // --- Open: SnapshotStore::OpenLatest, then SnapshotFromOpened. ---
  std::shared_ptr<const core::InventorySnapshot> mapped;
  {
    ScopedSpan open_span(&spans, "open");
    const store::SnapshotStore fresh({store_dir, kKeepGenerations});
    pol::Result<store::SnapshotStore::Opened> opened =
        pol::Status::Internal("unopened");
    {
      ScopedSpan span(&spans, "store.open");
      opened = fresh.OpenLatest();
    }
    ++outcome.attempted;
    if (!opened.ok()) {
      ++outcome.failed;
      outcome.Check(false, "open: " + opened.status().ToString());
      return outcome;
    }
    const double file_mb = static_cast<double>(fs::file_size(
                               fresh.GenerationPath(opened->generation))) /
                           kMiB;
    pol::Result<std::shared_ptr<const core::InventorySnapshot>> snapshot =
        pol::Status::Internal("unopened");
    {
      ScopedSpan span(&spans, "codec.open");
      snapshot = core::SnapshotFromOpened(std::move(*opened));
    }
    if (!snapshot.ok()) {
      outcome.Check(false, "codec open: " + snapshot.status().ToString());
      return outcome;
    }
    mapped = std::move(*snapshot);
    const double store_open_s = spans.Total("store.open");
    outcome.Add("store.open_s", store_open_s, "s");
    outcome.Add("store.validate_mb_per_s", PerSecond(file_mb, store_open_s),
                "MB/s");
    outcome.Add("codec.open_s", spans.Total("codec.open"), "s");
  }
  auto serving = std::make_unique<core::ServingInventory>(
      core::Inventory(res, core::SummaryMap{}), mapped);

  // --- Query layers over the cold-opened snapshot. ---
  const double rss_before_query = CurrentRssMb();
  {
    ScopedSpan query_span(&spans, "query");
    std::vector<hex::CellIndex> cells;
    cells.reserve(inputs.queries.size());
    {
      const double start = Now();
      for (const PointQuery& query : inputs.queries) {
        cells.push_back(hex::LatLngToCell(query.position, res));
      }
      outcome.Add("hexgrid.latlng_to_cell_ns",
                  (Now() - start) * 1e9 / static_cast<double>(cells.size()),
                  "ns");
    }
    // First touch: distinct present cells nothing has looked up yet.
    {
      ScopedSpan span(&spans, "snapshot.first_touch");
      std::unordered_set<hex::CellIndex> seen;
      std::vector<double> touch_us;
      for (const hex::CellIndex cell : cells) {
        if (touch_us.size() == kFirstTouchCells) break;
        if (sealed->Cell(cell) == nullptr || !seen.insert(cell).second) {
          continue;
        }
        const double start = Now();
        const core::CellSummary* summary = mapped->Cell(cell);
        touch_us.push_back((Now() - start) * 1e6);
        if (summary != nullptr) sink += summary->record_count();
      }
      outcome.Add("snapshot.first_touch_us", Mean(touch_us), "us");
    }
    // Warm Cell() on the snapshot and through ServingInventory.
    {
      ScopedSpan span(&spans, "snapshot.cell_lookup");
      const auto lookup_pass = [&](const core::InventoryQuery& inventory) {
        const double start = Now();
        for (const hex::CellIndex cell : cells) {
          const core::CellSummary* summary = inventory.Cell(cell);
          if (summary != nullptr) sink += summary->record_count();
        }
        return Now() - start;
      };
      lookup_pass(*mapped);  // Warm-up.
      const double snapshot_s = lookup_pass(*mapped);
      const double serving_s = lookup_pass(*serving);
      const auto n = static_cast<double>(cells.size());
      outcome.attempted += 3 * cells.size();
      outcome.Add("snapshot.cell_lookup_ns", snapshot_s * 1e9 / n, "ns");
      outcome.Add("serving.indirection_ns", (serving_s - snapshot_s) * 1e9 / n,
                  "ns");
    }
    // The point-query mix: answers per lookup; ETA separately timed.
    {
      ScopedSpan span(&spans, "point_queries");
      const uc::EtaEstimator eta(serving.get());
      uint64_t answered = 0;
      std::vector<double> eta_us;
      for (const PointQuery& query : inputs.queries) {
        const double start = Now();
        if (RunPointQuery(*serving, eta, query, res, &sink)) ++answered;
        if (query.op == PointOp::kEta) eta_us.push_back((Now() - start) * 1e6);
      }
      outcome.attempted += inputs.queries.size();
      outcome.Add("snapshot.hit_ratio",
                  static_cast<double>(answered) /
                      static_cast<double>(inputs.queries.size()),
                  "ratio");
      outcome.Add("eta.estimate_us", Mean(eta_us), "us");
    }
    // Route index and forecasts.
    {
      ScopedSpan span(&spans, "forecasts");
      std::vector<double> route_us;
      for (const ForecastQuery& query : inputs.forecasts) {
        const double start = Now();
        sink += mapped->CellsForRoute(query.origin, query.destination,
                                      query.segment)
                    .size();
        route_us.push_back((Now() - start) * 1e6);
      }
      const uc::RouteForecaster forecaster(serving.get(),
                                           &pol::sim::PortDatabase::Global());
      size_t produced = 0;
      size_t malformed = 0;
      double graph_cells = 0.0;
      for (const ForecastQuery& query : inputs.forecasts) {
        const pol::Result<uc::RouteForecast> forecast = forecaster.Forecast(
            query.position, query.origin, query.destination, query.segment);
        ++outcome.attempted;
        if (!forecast.ok()) continue;
        ++produced;
        graph_cells += static_cast<double>(forecast->graph_cells);
        const std::string problem = ForecastProblem(*forecast, query, *serving);
        if (!problem.empty() && ++malformed <= kMaxReported) {
          outcome.Check(false, problem);
        }
      }
      outcome.Check(produced * 2 >= inputs.forecasts.size(),
                    "fewer than half the forecasts produced a route");
      outcome.Add("snapshot.route_lookup_us", Mean(route_us), "us");
      outcome.Add("forecast.graph_cells_mean",
                  produced > 0 ? graph_cells / static_cast<double>(produced)
                               : 0.0,
                  "count");
      outcome.Add("forecast.produced_ratio",
                  inputs.forecasts.empty()
                      ? 0.0
                      : static_cast<double>(produced) /
                            static_cast<double>(inputs.forecasts.size()),
                  "ratio");
    }
    // Scans over every grouping set: the first pass decodes whatever the
    // queries left untouched, the timed passes walk decoded summaries.
    {
      ScopedSpan span(&spans, "scans");
      const ScanResult first = ScanAllSets(*mapped);
      CheckScanShape(first, *mapped, "cold-opened scan", &outcome);
      CheckLaws(first, totals, "cold-opened scan", &outcome);
      std::vector<double> rates;
      for (int pass = 0; pass < kScanPasses; ++pass) {
        const double start = Now();
        const ScanResult scan = ScanAllSets(*mapped);
        rates.push_back(static_cast<double>(scan.total()) / (Now() - start));
      }
      outcome.attempted += 1 + kScanPasses;
      outcome.Add("scan.summaries_per_s", Median(rates), "1/s");
    }
  }
  outcome.Add("snapshot.materialized_mb", CurrentRssMb() - rss_before_query,
              "MB");
  CheckMappedMatchesHeap(*sealed, *mapped, inputs, res, &outcome);
  CheckAtPosition(*serving, *base, inputs, res, &outcome);
  sealed.reset();

  // --- Refresh replayed step by step: MergeFrom, Seal, EncodeTo,
  // Publish, Swap, while one reader queries the serving inventory. The
  // deltas are built first, so the reader never runs beside the
  // pipeline's pool. ---
  {
    std::vector<core::PipelineResult> deltas;
    for (const std::vector<ais::PositionReport>& reports : inputs.deltas) {
      deltas.push_back(core::RunPipeline(reports, inputs.fleet, config));
      ++outcome.attempted;
    }
    std::atomic<int64_t> max_gap_ns{0};
    std::atomic<uint64_t> reader_sink{0};
    const double rss_before = CurrentRssMb();
    std::jthread reader([&](std::stop_token stop) {
      const uc::EtaEstimator eta(serving.get());
      uint64_t local_sink = 0;
      size_t next = 0;
      double last = Now();
      while (!stop.stop_requested()) {
        RunPointQuery(*serving, eta, inputs.queries[next], res, &local_sink);
        const double now = Now();
        const auto gap = static_cast<int64_t>((now - last) * 1e9);
        last = now;
        if (gap > max_gap_ns.load(std::memory_order_relaxed)) {
          max_gap_ns.store(gap, std::memory_order_relaxed);
        }
        if (++next == inputs.queries.size()) next = 0;
      }
      reader_sink.store(local_sink, std::memory_order_relaxed);
    });
    for (size_t k = 0; k < deltas.size(); ++k) {
      core::PipelineResult& delta = deltas[k];
      totals.cell_records += delta.aggregated_records;
      totals.in_trip_records += delta.trips.annotated;
      ScopedSpan round(&spans, "refresh");
      std::shared_ptr<const core::InventorySnapshot> next;
      pol::Status status;
      {
        ScopedSpan span(&spans, "refresh.merge");
        status = base->MergeFrom(std::move(*delta.inventory));
      }
      if (status.ok()) {
        {
          ScopedSpan span(&spans, "refresh.seal");
          next = base->Seal();
        }
        ScopedSpan span(&spans, "refresh.publish");
        std::string image;
        {
          ScopedSpan encode(&spans, "refresh.encode");
          next->EncodeTo(&image);
        }
        ScopedSpan publish(&spans, "refresh.store_publish");
        status = durable.Publish(image).status();
      }
      ++outcome.attempted;
      if (!status.ok()) {
        ++outcome.failed;
        outcome.Check(false, "refresh replay: " + status.ToString());
        continue;
      }
      {
        ScopedSpan span(&spans, "refresh.swap");
        serving->Swap(next);
      }
      const ScanResult scan = ScanAllSets(*next);
      CheckScanShape(scan, *next, "replayed refresh " + std::to_string(k + 1),
                     &outcome);
      CheckLaws(scan, totals, "replayed refresh " + std::to_string(k + 1),
                &outcome);
    }
    reader.request_stop();
    reader.join();
    sink += reader_sink.load(std::memory_order_relaxed);
    outcome.Add("refresh.merge_s", Median(spans.Durations("refresh.merge")),
                "s");
    outcome.Add("refresh.seal_s", Median(spans.Durations("refresh.seal")),
                "s");
    outcome.Add("refresh.publish_s",
                Median(spans.Durations("refresh.publish")), "s");
    outcome.Add("refresh.rss_growth_mb", CurrentRssMb() - rss_before, "MB");
    outcome.Add("refresh.reader_max_gap_ms",
                static_cast<double>(max_gap_ns.load()) * 1e-6, "ms");
  }
  serving.reset();
  mapped.reset();
  base.reset();

  if (spec.cold_start_refresh) {
    RunColdStartRefresh(spec, inputs, cold_dir, base_cell_records, &outcome);
  }
  fs::remove_all(store_dir);
  fs::remove_all(cold_dir);

  outcome.Add("trace.overhead_ratio", drive_wall / Mean(reference_walls),
              "ratio");
  const std::string span_file =
      (work / ("spans-" + spec.name + "-" + std::to_string(options.seed) +
               ".json"))
          .string();
  if (!spans.WriteJson(span_file)) {
    std::fprintf(stderr, "cannot write spans to %s\n", span_file.c_str());
  }
  std::printf("spans: %zu written to %s; recompute sample: %zu cells\n",
              spans.spans().size(), span_file.c_str(), sample.size());
  std::printf("checksum %llu\n", static_cast<unsigned long long>(sink));
  return outcome;
}

}  // namespace lcb
