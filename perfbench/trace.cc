#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "perfbench/bench.h"

namespace msprint {
namespace perfbench {

Tracer::Tracer(obs::MetricsRegistry* registry) {
  for (size_t i = 0; registry != nullptr && i < kTracedCounters.size(); ++i) {
    // The pool's counter is wall-clock dependent; registering it with any
    // other tag would change how the program exports it.
    const bool timing = std::strncmp(kTracedCounters[i], "pool/", 5) == 0;
    counters_[i] = &registry->GetCounter(
        kTracedCounters[i],
        timing ? obs::Determinism::kTiming : obs::Determinism::kStable);
  }
}

std::array<uint64_t, kTracedCounters.size()> Tracer::ReadCounters() const {
  std::array<uint64_t, kTracedCounters.size()> values{};
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = counters_[i] != nullptr ? counters_[i]->Value() : 0;
  }
  return values;
}

void Tracer::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(record));
}

void Tracer::Leaf(const char* name, double start, double end) {
  SpanRecord record;
  record.id = next_id_.fetch_add(1);
  record.parent = current_.load();
  record.op = current_op_.load();
  record.name = name;
  record.start = start;
  record.end = end;
  Add(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span::Span(Tracer* tracer, const char* name, uint64_t op) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  record_.id = tracer_->next_id_.fetch_add(1);
  record_.parent = tracer_->current_.load();
  record_.op = op;
  record_.name = name;
  saved_current_ = tracer_->current_.exchange(record_.id);
  saved_op_ = tracer_->current_op_.exchange(op);
  before_ = tracer_->ReadCounters();
  record_.start = tracer_->Now();
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  record_.end = tracer_->Now();
  const auto after = tracer_->ReadCounters();
  for (size_t i = 0; i < after.size(); ++i) {
    record_.counters[i] = after[i] - before_[i];
  }
  tracer_->current_.store(saved_current_);
  tracer_->current_op_.store(saved_op_);
  tracer_->Add(std::move(record_));
}

void Span::Set(const char* attr, double value) {
  if (tracer_ != nullptr) {
    record_.attrs.emplace_back(attr, value);
  }
}

double TimedModel::PredictResponseTime(const WorkloadProfile& profile,
                                       const ModelInput& input) const {
  const double start = tracer_.Now();
  const double rt = inner_.PredictResponseTime(profile, input);
  tracer_.Leaf("predict", start, tracer_.Now());
  return rt;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    const auto parent = index.find(span.parent);
    if (parent != index.end()) {
      children[parent->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Children run in parallel on the pool, so subtract the union of
    // their intervals (clipped to the parent), not their sum.
    double covered = 0.0;
    double reach = spans[i].start;
    for (const auto& [begin, end] : intervals) {
      const double from = std::max(begin, reach);
      const double to = std::min(end, spans[i].end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

void WriteSpans(const std::vector<SpanRecord>& spans,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  const std::vector<double> self = SelfTimes(spans);
  char number[64];
  auto fmt = [&](double value) {
    std::snprintf(number, sizeof(number), "%.9g", value);
    return std::string(number);
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << ",\"name\":\"" << span.name
        << "\",\"start_s\":" << fmt(span.start)
        << ",\"end_s\":" << fmt(span.end) << ",\"self_s\":" << fmt(self[i])
        << ",\"counters\":{";
    bool first = true;
    for (size_t c = 0; c < kTracedCounters.size(); ++c) {
      if (span.counters[c] != 0) {
        out << (first ? "" : ",") << '"' << kTracedCounters[c]
            << "\":" << span.counters[c];
        first = false;
      }
    }
    out << "},\"attrs\":{";
    for (size_t a = 0; a < span.attrs.size(); ++a) {
      out << (a == 0 ? "" : ",") << '"' << span.attrs[a].first
          << "\":" << fmt(span.attrs[a].second);
    }
    out << "}}\n";
  }
}

}  // namespace perfbench
}  // namespace msprint
