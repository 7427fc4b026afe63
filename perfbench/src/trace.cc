#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sudowoodo::perfbench {

int Tracer::Begin(const char* name, int parent, int64_t op) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int Tracer::Add(const char* name, Clock::time_point start,
                Clock::time_point end, int parent, int64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfSeconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    Clock::duration covered{0};
    Clock::time_point cursor = all[i].start;
    for (const auto& [start, end] : kids) {
      const Clock::time_point from = std::max(start, cursor);
      const Clock::time_point to = std::min(end, all[i].end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = Seconds(all[i].end - all[i].start - covered);
  }
  return self;
}

std::map<std::string, Tracer::LayerTime> Tracer::ByName() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < all.size(); ++i) {
    LayerTime& t = out[all[i].name];
    ++t.calls;
    t.total_s += Seconds(all[i].end - all[i].start);
    t.self_s += self[i];
  }
  return out;
}

std::vector<double> Tracer::DurationsSeconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (name == s.name) out.push_back(Seconds(s.end - s.start));
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double d : DurationsSeconds(name)) total += d;
  return total;
}

double Tracer::MeanSelfMicros(const std::string& name) const {
  const auto layers = ByName();
  const auto it = layers.find(name);
  if (it == layers.end()) return 0.0;
  return it->second.self_s * 1e6 / static_cast<double>(it->second.calls);
}

size_t Tracer::Calls(const std::string& name) const {
  return DurationsSeconds(name).size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfSeconds();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point epoch = all.empty() ? Clock::now() : all[0].start;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"self_us\": %.3f, \"parent\": %d, "
                 "\"op\": %lld}\n",
                 i, s.name, Micros(s.start - epoch), Micros(s.end - epoch),
                 self[i] * 1e6, s.parent, static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

}  // namespace sudowoodo::perfbench
