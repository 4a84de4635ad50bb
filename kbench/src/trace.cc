#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace kbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

uint64_t Tracer::NextId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent,
                    uint64_t request, double start_us, double end_us) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, request, start_us, end_us});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& extra) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]%s%s}\n", extra.empty() ? "" : ", ", extra.c_str());
  return std::fclose(f) == 0;
}

SpanTimer::SpanTimer(Tracer* tracer, const char* name, uint64_t parent,
                     uint64_t request)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      request_(request),
      start_us_(tracer->NowUs()),
      id_(tracer->NextId()) {}

SpanTimer::~SpanTimer() { Close(); }

double SpanTimer::Close() {
  if (closed_) return elapsed_us_;
  closed_ = true;
  const double end_us = tracer_->NowUs();
  elapsed_us_ = end_us - start_us_;
  tracer_->Record(name_, id_, parent_, request_, start_us_, end_us);
  return elapsed_us_;
}

void LayerSamples::Add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double LayerSamples::Median(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : kbench::Median(it->second);
}

}  // namespace kbench
