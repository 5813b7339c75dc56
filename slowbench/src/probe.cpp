#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "sim/simulator.hpp"

namespace slowbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- spans -----------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
}  // namespace

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.parent = parent != 0 ? parent : t_current_span;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end = Clock::now();
  t_current_span = saved_current_;
  tracer_.record(std::move(span_));
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : iv) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    out[s.name] +=
        std::chrono::duration<double>((s.end - s.start) - covered).count();
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (spans.empty()) return;
  Clock::time_point t0 = spans.front().start;
  for (const Span& s : spans) t0 = std::min(t0, s.start);
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"start_us\": "
        << us(s.start - t0) << ", \"dur_us\": " << us(s.end - s.start)
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// ---- simulator probe -------------------------------------------------

namespace {

/// Attached to each observed Simulator; its destructor runs at the head
/// of ~Simulator, while the clock and digest are still valid.
class SimGuard {
 public:
  SimGuard(slowcc::sim::Simulator& sim, std::vector<SimRecord>& out,
           Tracer& tracer)
      : sim_(sim), out_(out), span_(tracer, "sim.lifetime") {}
  SimGuard(const SimGuard&) = delete;
  SimGuard& operator=(const SimGuard&) = delete;
  ~SimGuard() {
    SimRecord r;
    r.digest = sim_.trace_digest();
    r.events = sim_.events_executed();
    r.sim_s = sim_.now().as_seconds();
    out_.push_back(r);
  }

 private:
  slowcc::sim::Simulator& sim_;
  std::vector<SimRecord>& out_;
  ScopedSpan span_;
};

}  // namespace

ProbeScope::ProbeScope(std::vector<SimRecord>& out, Tracer& tracer,
                       bool arm_governor) {
  slowcc::sim::Simulator::set_thread_construct_observer(
      [&out, &tracer, arm_governor](slowcc::sim::Simulator& sim) {
        if (arm_governor) {
          // 2^62 modeled bytes: far beyond any trial, and exact in the
          // double the governor derives its watermark from.
          sim.governor().set_budget(std::uint64_t{1} << 62, 1.0);
        }
        sim.attach_guard(std::make_shared<SimGuard>(sim, out, tracer));
      });
}

ProbeScope::~ProbeScope() {
  slowcc::sim::Simulator::set_thread_construct_observer(nullptr);
}

}  // namespace slowbench
