#ifndef LIFECYCLE_BENCH_SPANS_H_
#define LIFECYCLE_BENCH_SPANS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Spans of the traced run: one per call into a layer, recorded by the
// benchmark around the program's public calls (name, start, end and the
// enclosing span), kept in memory and written out when the run ends.
// Single-threaded: only the thread driving the lifecycle records.

namespace lcb {

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // Index of the enclosing span; -1 at the top.
};

class SpanRecorder {
 public:
  int Begin(std::string name);
  void End(int id);

  // Durations of every span called `name`, in recording order.
  std::vector<double> Durations(std::string_view name) const;
  double Total(std::string_view name) const;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Writes the spans as a JSON array; false when the file cannot be
  // written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), id_(recorder->Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace lcb

#endif  // LIFECYCLE_BENCH_SPANS_H_
