#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

size_t Lane::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Lane::End(size_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order close by removing
  // the index wherever it sits.
  auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Lane::Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t request) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request;
  spans_.push_back(span);
}

Lane* Tracer::NewLane(const std::string& name) {
  if (!enabled_) return nullptr;
  lanes_.push_back(std::make_unique<Lane>(name));
  return lanes_.back().get();
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    // Child coverage per span: children never outlive their parent, so the
    // summed child durations are the covered part of the parent's interval.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanTotals& t = out[s.name];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.count += 1;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    }
  }
  return out;
}

uint64_t Tracer::num_spans() const {
  uint64_t n = 0;
  for (const auto& lane : lanes_) n += lane->spans().size();
  return n;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"lane\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                   lane->name().c_str(), i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
