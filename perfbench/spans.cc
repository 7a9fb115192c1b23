#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace rankjoin::perfbench {

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent, int pass) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.pass = pass;
  span.name = name;
  span.start_us = NowUs();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int id) { spans_[static_cast<size_t>(id)].end_us = NowUs(); }

std::string SpanRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"perfbench\"}}";
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,"
                  "\"parent\":%d,\"pass\":%d}}",
                  s.name.c_str(), LayerOf(s.name).c_str(), s.pass, s.start_us,
                  s.end_us - s.start_us, s.id, s.parent, s.pass);
    out += line;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans,
                                                 int pass) {
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.pass != pass) continue;
    std::vector<std::pair<double, double>> children;
    for (const Span& c : spans) {
      if (c.pass == pass && c.parent == s.id) {
        children.emplace_back(std::max(c.start_us, s.start_us),
                              std::min(c.end_us, s.end_us));
      }
    }
    std::sort(children.begin(), children.end());
    double covered = 0;
    double reach = s.start_us;
    for (const auto& [start, end] : children) {
      const double from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[LayerOf(s.name)] += (s.end_us - s.start_us - covered) / 1e6;
  }
  return self;
}

}  // namespace rankjoin::perfbench
