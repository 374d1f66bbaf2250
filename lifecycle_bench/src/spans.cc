#include "spans.h"

#include <cstdio>

#include "util.h"

namespace lcb {

int SpanRecorder::Begin(std::string name) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : open_.back();
  record.start = Now();
  spans_.push_back(std::move(record));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double SpanRecorder::Total(std::string_view name) const {
  double total = 0.0;
  for (const double d : Durations(name)) total += d;
  return total;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(file, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(file,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %s, "
                 "\"end_s\": %s, \"parent\": %d}%s\n",
                 i, span.name.c_str(),
                 FormatNumber(span.start - origin).c_str(),
                 FormatNumber(span.end - origin).c_str(), span.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]\n");
  return std::fclose(file) == 0;
}

}  // namespace lcb
