#include "trace.hpp"

#include <cstdio>

namespace perfbench {

int Tracer::open(const char* layer, const char* name, Clock::time_point at) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_us = seconds_between(origin_, at) * 1e6;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id, Clock::time_point at, double cpu_s) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_us = seconds_between(origin_, at) * 1e6;
  span.cpu_us = cpu_s * 1e6;
  // Scopes nest lexically, so the span being closed is the innermost one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children of one parent never overlap (the benchmark is single-threaded
  // at its call sites), so a parent's covered time is the sum of its direct
  // children's CPU times.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.cpu_us;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += (s.cpu_us - child_us[i]) / 1e6;
  }
  return self;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"cpu_us\":%.3f}}",
                  s.start_us, s.end_us - s.start_us, s.run, i, s.parent,
                  s.cpu_us);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
