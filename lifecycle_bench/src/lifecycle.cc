#include "lifecycle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "core/serving_inventory.h"
#include "core/snapshot_codec.h"
#include "ops.h"
#include "sim/ports.h"
#include "store/snapshot_store.h"
#include "usecases/eta.h"
#include "usecases/route_forecast.h"

namespace lcb {
namespace {

namespace core = pol::core;
namespace store = pol::store;
namespace uc = pol::uc;
namespace fs = std::filesystem;


// One progress line per phase: where the time and the memory went.
void PhaseDone(const char* phase, double run_start) {
  std::printf("phase %-8s done at %7.2f s: rss %.0f MB, peak %.0f MB\n",
              phase, Now() - run_start, CurrentRssMb(), PeakRssMb());
}

struct BuildTally {
  uint64_t reports = 0;
  double seconds = 0.0;
};

// One RunPipeline call, timed into `tally`; counts as one operation.
core::PipelineResult TimedBuild(
    const std::vector<pol::ais::PositionReport>& reports,
    const Inputs& inputs, const core::PipelineConfig& config,
    const std::string& what, BuildTally* tally, Outcome* outcome) {
  const double start = Now();
  core::PipelineResult result =
      core::RunPipeline(reports, inputs.fleet, config);
  tally->seconds += Now() - start;
  tally->reports += reports.size();
  ++outcome->attempted;
  if (!result.status.ok()) {
    ++outcome->failed;
    outcome->Check(false, what + ": " + result.status.ToString());
  }
  return result;
}

}  // namespace

void RunColdStartRefresh(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::string& cold_dir,
                         uint64_t base_cell_records, Outcome* outcome) {
  ++outcome->attempted;
  store::SnapshotStore cold({cold_dir, kKeepGenerations});
  core::PipelineResult delta = core::RunPipeline(
      inputs.deltas.front(), inputs.fleet, MakePipelineConfig(spec));
  const uint64_t expected = base_cell_records + delta.aggregated_records;
  uint64_t published_records = 0;
  pol::Status status = delta.status;
  if (status.ok()) {
    pol::Result<std::unique_ptr<core::ServingInventory>> serving =
        core::ServingInventory::OpenLatest(cold);
    status = serving.status();
    if (status.ok()) {
      (*serving)->AttachDurableStore(&cold);
      status = (*serving)->Refresh(std::move(*delta.inventory));
    }
  }
  if (status.ok()) {
    pol::Result<std::shared_ptr<const core::InventorySnapshot>> published =
        core::OpenLatestSnapshot(cold);
    status = published.status();
    if (status.ok()) published_records = ScanAllSets(**published).records[0];
  }
  if (!status.ok() || published_records != expected) {
    ++outcome->failed;
    std::printf(
        "FAILED OPERATION: cold-start refresh (store-only OpenLatest + "
        "Refresh) published %llu of %llu records%s%s\n",
        static_cast<unsigned long long>(published_records),
        static_cast<unsigned long long>(expected), status.ok() ? "" : ": ",
        status.ok() ? "" : status.ToString().c_str());
  }
}

int ServingRounds(const WorkloadSpec& spec, int seconds) {
  return std::max(1, static_cast<int>(std::lround(
                         spec.rounds_per_second * seconds)));
}

Outcome RunLifecycle(const WorkloadSpec& spec, const RunOptions& options) {
  Outcome outcome;
  const fs::path work(options.work_dir);
  const std::string store_dir = (work / "store").string();
  const std::string cold_dir = (work / "cold_store").string();
  fs::remove_all(store_dir);
  fs::remove_all(cold_dir);
  fs::create_directories(store_dir);
  fs::create_directories(cold_dir);
  const int res = spec.resolution;
  uint64_t sink = 0;
  const double run_start = Now();

  // --- Set-up: simulate, split, generate the queries. ---
  std::vector<double> setup_times;
  Inputs inputs;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    inputs = Inputs();  // Every set-up starts from the same heap state.
    const double start = Now();
    inputs = Setup(spec, options.seed);
    setup_times.push_back(Now() - start);
    ++outcome.attempted;
  }
  outcome.Check(!inputs.forecasts.empty(),
                "no recorded voyage qualifies for a forecast");
  PhaseDone("setup", run_start);
  std::printf("archive: %zu reports (base %zu, %zu daily deltas), "
              "%zu point queries, %zu forecasts over %zu voyages\n",
              inputs.archive_reports, inputs.base.size(),
              inputs.deltas.size(), inputs.queries.size(),
              inputs.forecasts.size(), inputs.eligible_voyages);

  // --- Build: the base, `build_reps` times; the last one is kept. ---
  const core::PipelineConfig config = MakePipelineConfig(spec);
  BuildTally build;
  RecordTotals totals;
  std::unique_ptr<core::Inventory> base;
  for (int rep = 0; rep < spec.build_reps; ++rep) {
    base.reset();  // Every build starts from the same heap state.
    core::PipelineResult built =
        TimedBuild(inputs.base, inputs, config, "base build", &build, &outcome);
    totals = TotalsOf(built);
    base = std::move(built.inventory);
  }
  const RecordTotals base_totals = totals;
  PhaseDone("build", run_start);
  std::printf("base inventory: %zu summaries from %llu records\n",
              base->size(),
              static_cast<unsigned long long>(totals.cell_records));

  // --- Publish: seal the built base and write it durably. ---
  store::SnapshotStore durable({store_dir, kKeepGenerations});
  std::vector<double> publish_times;
  std::shared_ptr<const core::InventorySnapshot> sealed;
  for (int rep = 0; rep < spec.publish_reps; ++rep) {
    sealed.reset();
    uint64_t generation = 0;
    const double start = Now();
    sealed = base->Seal();
    const pol::Status written = sealed->WriteTo(&durable, &generation);
    publish_times.push_back(Now() - start);
    ++outcome.attempted;
    if (!written.ok()) {
      ++outcome.failed;
      outcome.Check(false, "publish: " + written.ToString());
      return outcome;
    }
    if (spec.cold_start_refresh && rep == 0) {
      const fs::path image(durable.GenerationPath(generation));
      fs::copy_file(image, fs::path(cold_dir) / image.filename());
    }
  }
  {
    const ScanResult scan = ScanAllSets(*sealed);
    CheckScanShape(scan, *sealed, "sealed base", &outcome);
    CheckLaws(scan, base_totals, "sealed base", &outcome);
  }
  PhaseDone("publish", run_start);

  // --- Open: a restart, until the first query has its answer. ---
  std::vector<double> open_times;
  std::unique_ptr<core::ServingInventory> serving;
  for (int rep = 0; rep < spec.open_reps; ++rep) {
    serving.reset();
    const double start = Now();
    const store::SnapshotStore fresh({store_dir, kKeepGenerations});
    pol::Result<std::unique_ptr<core::ServingInventory>> opened =
        core::ServingInventory::OpenLatest(fresh);
    if (!opened.ok()) {
      ++outcome.attempted;
      ++outcome.failed;
      outcome.Check(false, "open: " + opened.status().ToString());
      return outcome;
    }
    const core::CellSummary* first =
        (*opened)->AtPosition(inputs.queries.front().position);
    open_times.push_back(Now() - start);
    ++outcome.attempted;
    if (first != nullptr) sink += first->record_count();
    serving = std::move(*opened);
  }
  CheckMappedMatchesHeap(*sealed, *serving->Acquire(), inputs, res, &outcome);
  sealed.reset();
  PhaseDone("open", run_start);

  // --- Query: warm-up and output checks (a full scan among them), then
  // timed serving rounds of lookups and forecasts. ---
  std::vector<double> lookup_rates;
  std::vector<double> forecast_ms;
  {
    const uc::EtaEstimator eta(serving.get());
    for (const PointQuery& query : inputs.queries) {
      RunPointQuery(*serving, eta, query, res, &sink);
    }
    outcome.attempted += inputs.queries.size();
    CheckAtPosition(*serving, *base, inputs, res, &outcome);
    const ScanResult first_scan = ScanAllSets(*serving);  // Materializes.
    ++outcome.attempted;
    CheckScanShape(first_scan, *serving->Acquire(), "cold-opened scan",
                   &outcome);
    CheckLaws(first_scan, base_totals, "cold-opened scan", &outcome);
    const uc::RouteForecaster forecaster(serving.get(),
                                         &pol::sim::PortDatabase::Global());
    const size_t checked =
        std::min(spec.checked_forecasts, inputs.forecasts.size());
    size_t produced = 0;
    size_t malformed = 0;
    for (size_t i = 0; i < checked; ++i) {
      const ForecastQuery& query = inputs.forecasts[i];
      const pol::Result<uc::RouteForecast> forecast = forecaster.Forecast(
          query.position, query.origin, query.destination, query.segment);
      ++outcome.attempted;
      if (!forecast.ok()) continue;
      ++produced;
      const std::string problem = ForecastProblem(*forecast, query, *serving);
      if (!problem.empty() && ++malformed <= kMaxReported) {
        outcome.Check(false, problem);
      }
    }
    outcome.Check(produced * 2 >= checked,
                  "only " + std::to_string(produced) + " of " +
                      std::to_string(checked) + " forecasts produced a route");

    const int rounds = ServingRounds(spec, options.seconds);
    for (int round = 0; round < rounds; ++round) {
      const double start = Now();
      for (const PointQuery& query : inputs.queries) {
        RunPointQuery(*serving, eta, query, res, &sink);
      }
      lookup_rates.push_back(static_cast<double>(inputs.queries.size()) /
                             (Now() - start));
      outcome.attempted += inputs.queries.size();
      const auto share = [&](int r) {
        return inputs.forecasts.size() * static_cast<size_t>(r) /
               static_cast<size_t>(rounds);
      };
      for (size_t i = share(round); i < share(round + 1); ++i) {
        const ForecastQuery& query = inputs.forecasts[i];
        const double forecast_start = Now();
        const pol::Result<uc::RouteForecast> forecast = forecaster.Forecast(
            query.position, query.origin, query.destination, query.segment);
        forecast_ms.push_back((Now() - forecast_start) * 1e3);
        ++outcome.attempted;
        if (forecast.ok()) sink += forecast->cells.size();
      }
    }
  }
  std::printf("serving rounds: lookups/s %.4g..%.4g (median %.4g)\n",
              Quantile(lookup_rates, 0.0), Quantile(lookup_rates, 1.0),
              Median(lookup_rates));
  PhaseDone("query", run_start);

  // --- Refresh: build the daily deltas, restart on the restored build
  // side, then fold the deltas with the durable store attached while one
  // reader queries. The deltas are built before the reader starts, so
  // the reader never runs beside the pipeline's pool. ---
  serving.reset();  // Frees the summaries the query phase materialized.
  std::vector<core::PipelineResult> deltas;
  for (size_t k = 0; k < inputs.deltas.size(); ++k) {
    deltas.push_back(TimedBuild(inputs.deltas[k], inputs, config,
                                "delta " + std::to_string(k + 1) + " build",
                                &build, &outcome));
  }
  {
    pol::Result<std::unique_ptr<core::ServingInventory>> reopened =
        core::ServingInventory::OpenLatest(durable, std::move(*base));
    base.reset();
    if (!reopened.ok()) {
      outcome.Check(false, "reopen: " + reopened.status().ToString());
      return outcome;
    }
    serving = std::move(*reopened);
  }
  serving->AttachDurableStore(&durable);
  std::vector<double> refresh_times;
  std::vector<double> reader_rates;
  {
    std::atomic<uint64_t> reader_ops{0};
    std::atomic<uint64_t> reader_sink{0};
    std::jthread reader([&](std::stop_token stop) {
      const uc::EtaEstimator reader_eta(serving.get());
      uint64_t local_sink = 0;
      uint64_t done = 0;
      size_t next = 0;
      while (!stop.stop_requested()) {
        RunPointQuery(*serving, reader_eta, inputs.queries[next], res,
                      &local_sink);
        reader_ops.store(++done, std::memory_order_relaxed);
        if (++next == inputs.queries.size()) next = 0;
      }
      reader_sink.store(local_sink, std::memory_order_relaxed);
    });
    for (size_t k = 0; k < deltas.size(); ++k) {
      const std::string round = "refresh " + std::to_string(k + 1);
      core::PipelineResult& delta = deltas[k];
      if (delta.inventory == nullptr) continue;  // Counted by TimedBuild.
      AddTotals(TotalsOf(delta), &totals);
      const uint64_t before = reader_ops.load(std::memory_order_relaxed);
      const double start = Now();
      const pol::Status refreshed =
          serving->Refresh(std::move(*delta.inventory));
      const double took = Now() - start;
      refresh_times.push_back(took);
      reader_rates.push_back(
          static_cast<double>(reader_ops.load(std::memory_order_relaxed) -
                              before) /
          took);
      ++outcome.attempted;
      if (!refreshed.ok()) {
        ++outcome.failed;
        outcome.Check(false, round + ": " + refreshed.ToString());
        continue;
      }
      const std::shared_ptr<const core::InventorySnapshot> active =
          serving->Acquire();
      const ScanResult scan = ScanAllSets(*active);
      CheckScanShape(scan, *active, round, &outcome);
      CheckLaws(scan, totals, round, &outcome);
    }
    reader.request_stop();
    reader.join();
    sink += reader_sink.load(std::memory_order_relaxed);
  }
  PhaseDone("refresh", run_start);

  // The newest generation is the one the last refresh published.
  double image_bytes_per_summary = 0.0;
  {
    const std::vector<uint64_t> generations = durable.ListGenerations();
    const size_t summaries = serving->Acquire()->size();
    if (!generations.empty() && summaries > 0) {
      image_bytes_per_summary =
          static_cast<double>(
              fs::file_size(durable.GenerationPath(generations.back()))) /
          static_cast<double>(summaries);
    }
    std::printf("newest generation %llu: %zu summaries\n",
                static_cast<unsigned long long>(
                    generations.empty() ? 0 : generations.back()),
                summaries);
  }
  serving.reset();

  // The cold-start refresh: counted, excluded from every metric.
  if (spec.cold_start_refresh) {
    RunColdStartRefresh(spec, inputs, cold_dir, base_totals.cell_records,
                        &outcome);
  }
  fs::remove_all(store_dir);
  fs::remove_all(cold_dir);

  std::printf("checksum %llu\n", static_cast<unsigned long long>(sink));
  outcome.Add("setup_s", Median(setup_times), "s");
  outcome.Add("build_reports_per_s",
              static_cast<double>(build.reports) / build.seconds, "1/s");
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
  outcome.Add("image_bytes_per_summary", image_bytes_per_summary, "B");
  outcome.Add("publish_s", Median(publish_times), "s");
  outcome.Add("open_s", Median(open_times), "s");
  outcome.Add("lookups_per_s", Median(lookup_rates), "1/s");
  outcome.Add("forecast_p50_ms", Quantile(forecast_ms, 0.5), "ms");
  outcome.Add("forecast_p90_ms", Quantile(forecast_ms, 0.9), "ms");
  outcome.Add("refresh_s", Median(refresh_times), "s");
  outcome.Add("refresh_lookups_per_s", Median(reader_rates), "1/s");
  return outcome;
}

}  // namespace lcb
