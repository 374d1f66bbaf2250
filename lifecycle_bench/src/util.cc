#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace lcb {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CurrentRssMb() {
  long pages_total = 0;
  long pages_resident = 0;
  FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  if (std::fscanf(file, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(file);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void PrintOutcome(const Outcome& outcome) {
  for (const std::string& failure : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  for (const Metric& metric : outcome.metrics) {
    std::printf("%-32s %16s %s\n", metric.name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu, output checks %s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct() ? "passed" : "FAILED");
  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            FormatNumber(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace lcb
