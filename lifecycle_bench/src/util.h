#ifndef LIFECYCLE_BENCH_UTIL_H_
#define LIFECYCLE_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

// Clocks, process counters, order statistics and the result line of
// the lifecycle benchmark.

namespace lcb {

// Monotonic wall clock in seconds.
double Now();

// Resident set size now (/proc/self/statm) and at its peak
// (getrusage ru_maxrss), in MiB.
double CurrentRssMb();
double PeakRssMb();

// User + system CPU seconds of the whole process.
double CpuSeconds();

double Median(std::vector<double> values);
// Nearest-rank quantile: the smallest value with at least q of the
// sample at or below it.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One run's verdict. `failures` holds one line per failed output check;
// `failed` counts operations that failed (a failed check of an
// operation's own result counts here too).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return failures.empty(); }
};

// Shortest round-trip decimal form of `value`.
std::string FormatNumber(double value);

// Prints every metric as a "name value unit" line, then the one-line
// JSON result the benchmark ends its standard output with.
void PrintOutcome(const Outcome& outcome);

}  // namespace lcb

#endif  // LIFECYCLE_BENCH_UTIL_H_
