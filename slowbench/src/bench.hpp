#pragma once

// Shared declarations of the slowcc benchmark binary (see README.md):
// workload definitions, the outside-in probes that read each
// Simulator's digest and counters, in-memory spans, and the per-layer
// rows.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/row.hpp"
#include "exp/sweep_spec.hpp"
#include "spec/scenario_spec.hpp"

namespace slowbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---- spans -------------------------------------------------------------

/// One timed interval at a layer boundary. Spans live in memory until
/// the run ends; `parent` links a span to the one that caused it.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe in-memory span store. Disabled tracers record nothing,
/// so an untraced pass pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t next_id();
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, records on destruction, and is the
/// calling thread's current span meanwhile (children started on this
/// thread link to it unless given an explicit parent).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Self time per span name: each span's duration minus the part of it
/// covered by the union of its children's intervals.
[[nodiscard]] std::map<std::string, double> self_seconds(
    const std::vector<Span>& spans);

/// Write spans as JSON lines (name, id, parent, start and duration in
/// microseconds from the earliest span). Throws std::runtime_error when
/// the file cannot be written.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ---- simulator probe -------------------------------------------------

/// What the probe reads from one Simulator at the head of ~Simulator.
/// The governor peaks need no probe: exp::ParallelRunner stamps them
/// into every row's outcome.
struct SimRecord {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double sim_s = 0.0;
};

/// Installs a construct observer on the calling thread for its
/// lifetime. Every Simulator built meanwhile gets an attached guard
/// whose destructor (which runs first in ~Simulator) appends a
/// SimRecord to `out` and, when tracing, records a `sim.lifetime` span.
/// With `arm_governor` the observer arms a resource budget that cannot
/// trip, because the governor tracks peaks only while armed.
class ProbeScope {
 public:
  ProbeScope(std::vector<SimRecord>& out, Tracer& tracer, bool arm_governor);
  ~ProbeScope();
  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;
};

// ---- workloads -------------------------------------------------------

struct WorkloadDef {
  std::string name;
  std::string spec_file;  // relative to the repo root
  std::vector<std::string> algorithms;
  double duration_scale = 1.0;
  int jobs = 1;
  /// Trial seeds in the reference pool.
  int pool = 1;
  /// Consecutive pool seeds per pass; divides the pool size.
  int per_pass = 1;
};

[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// The workload's parsed spec and its experiment adapter.
struct Setup {
  std::shared_ptr<const slowcc::spec::ScenarioSpec> spec;
  slowcc::exp::Experiment experiment;
  /// Every pass the pool can run, in pool order; trial ids are
  /// renumbered 0..n-1 within each pass.
  std::vector<std::vector<slowcc::exp::TrialDesc>> passes;
};

/// Parse the workload's spec file under `root`, build its experiment
/// adapter, and expand the pool's passes.
[[nodiscard]] Setup set_up(const WorkloadDef& w, const std::string& root,
                           double extra_scale, int pool_override);

/// The dumbbell a spec compiles to, read from the spec with its
/// defaults and [params] defaults filled in as the spec compiler fills
/// them.
struct SpecShape {
  /// 2 routers + 2 hosts per flow, reverse TCP flow and traffic source;
  /// every node holds a route to every other.
  int nodes = 2;
  int forward_flows = 0;
  double bottleneck_bps = 10e6;
  double bottleneck_delay_s = 0.023;
  double base_rtt_s = 0.05;  // propagation only, both directions
  double packet_size = 1000.0;
};

[[nodiscard]] SpecShape spec_shape(const slowcc::spec::ScenarioSpec& spec);

/// Reference digest + event count per (experiment, algorithm, seed).
struct RefKey {
  std::string experiment;
  std::string algorithm;
  std::uint64_t seed = 0;
  auto operator<=>(const RefKey&) const = default;
};
struct RefValue {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};
using Reference = std::map<RefKey, RefValue>;

/// Throws std::runtime_error on a missing or malformed file.
[[nodiscard]] Reference read_reference(const std::string& path,
                                       const std::string& workload);
void write_reference(const std::string& path, const std::string& workload,
                     const Reference& ref);

/// Outcome of one trial as seen from outside the program.
struct TrialResult {
  slowcc::exp::Row row;
  SimRecord sim;
  bool ok = false;  // no error, one Simulator, digest and events match
  std::string why;      // failure reason when !ok
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<TrialResult> trials;
};

/// Run one pass through exp::ParallelRunner at the workload's jobs,
/// then serialize its rows as a sweep's JSONL sink would. With
/// `reference` null every probed trial counts as ok (regeneration).
[[nodiscard]] PassResult run_pass(const WorkloadDef& w, const Setup& setup,
                                  const std::vector<slowcc::exp::TrialDesc>& trials,
                                  const Reference* reference, Tracer& tracer);

// ---- per-layer rows --------------------------------------------------

/// Standing occupancies and inputs the layer rows reproduce, taken from
/// the traced run of the workload and the dumbbell its spec compiles to.
struct LayerInputs {
  std::uint64_t live_events = 1;
  std::uint64_t live_packets = 1;
  double loss_rate = 0.01;
  /// Per-flow window in packets: forward goodput per flow times the
  /// base RTT, median over the traced trials.
  double cwnd_packets = 20.0;
  /// Nodes of the workload's dumbbell.
  int nodes = 28;
  double bottleneck_bps = 10e6;
  double bottleneck_delay_s = 0.023;
  double base_rtt_s = 0.05;
  std::string spec_path;
  std::vector<slowcc::exp::Row> rows;
};

struct LayerRow {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // occupancy / input the row ran at
};

[[nodiscard]] std::vector<LayerRow> run_layer_rows(const LayerInputs& in);

}  // namespace slowbench
