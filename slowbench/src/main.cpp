// slowbench — the slowcc benchmark binary. Runs one named workload
// through the public spec:: and exp:: entry points, checks every
// trial's trace digest against a committed reference, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). Normally launched by run.py, which builds it first; see
// README.md for the workloads, metrics and the traced run.
//
//   slowbench --root DIR --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--spans FILE] [--regen] [--tiny]
//
// Exit codes: 0 ok, 1 a trial failed its check, 2 usage or set-up
// error, 3 refused to time an unoptimized or sanitizer build.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "bench.hpp"
#include "sim/rng.hpp"

namespace {

using namespace slowbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string root = ".";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string spans;  // traced run: where to write the spans
  bool regen = false;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--root") {
      a.root = value();
    } else if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--reference") {
      a.reference = value();
    } else if (k == "--spans") {
      a.spans = value();
    } else if (k == "--regen") {
      a.regen = true;
    } else if (k == "--tiny") {
      a.tiny = true;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    throw std::runtime_error("--workload must be one of:" + names);
  }
  if (a.reference.empty()) throw std::runtime_error("--reference is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// Metric name -> (value, unit), in print order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + m[i].first + "\": {\"value\": " +
           json_number(m[i].second.first) + ", \"unit\": \"" +
           m[i].second.second + "\"}";
  }
  return out + "}";
}

void print_metric(const std::string& name, double v, const std::string& unit,
                  const std::string& note) {
  std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), v, unit.c_str(),
              note.c_str());
}

/// Peak resident set of this process image. VmHWM starts afresh at
/// exec, unlike getrusage's ru_maxrss, which a child inherits from the
/// process that forked it.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// One set-up sample. Set-up runs on one thread, and on a shared VM a
/// thread's speed depends on the CPU it sits on: the same set-up reads
/// 1.6x slower on some CPUs than on others, for seconds at a time. So a
/// sample visits the first `jobs` CPUs this process may use, one at a
/// time, on a thread pinned there: two untimed set-ups warm the caches,
/// eight are timed, and the sample is the mean over CPUs of each CPU's
/// median, the average the trials' four workers also see.
double set_up_sample(const WorkloadDef& w, const std::string& root,
                     double extra_scale, int pool_override) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  std::vector<int> cpus;
  for (int c = 0; pin && c < CPU_SETSIZE &&
                  static_cast<int>(cpus.size()) < w.jobs; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(-1);  // affinity unavailable: unpinned
  double sum = 0.0;
  for (const int cpu : cpus) {
    std::vector<double> times;
    std::exception_ptr error;
    std::thread t([&] {
      try {
        if (cpu >= 0) {
          cpu_set_t one;
          CPU_ZERO(&one);
          CPU_SET(cpu, &one);
          (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        }
        for (int i = 0; i < 10; ++i) {
          const Clock::time_point t0 = Clock::now();
          const Setup s = set_up(w, root, extra_scale, pool_override);
          if (i >= 2) times.push_back(seconds_since(t0));
        }
      } catch (...) {
        error = std::current_exception();
      }
    });
    t.join();
    if (error) std::rethrow_exception(error);
    sum += median(times);
  }
  return sum / static_cast<double>(cpus.size());
}

/// Pool entries in the order this seed visits them.
std::vector<std::size_t> visit_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  slowcc::sim::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  return order;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  void add(const PassResult& p) {
    for (const TrialResult& t : p.trials) {
      ++attempted;
      if (t.ok) continue;
      ++failed;
      if (failures.size() < 10) {
        failures.push_back(t.row.experiment + " " + t.row.algorithm +
                           " seed " + std::to_string(t.row.seed) + ": " +
                           t.why);
      }
    }
  }
};

/// Everything a measuring run needs besides its own counters.
struct Run {
  const Args& args;
  const WorkloadDef& w;
  const Setup& setup;
  const Reference& ref;
  std::vector<std::size_t> order;  // pool entries in visit order
  Clock::time_point start = Clock::now();

  [[nodiscard]] const std::vector<slowcc::exp::TrialDesc>& trials(
      std::size_t k) const {
    return setup.passes[order[k % order.size()]];
  }
  [[nodiscard]] bool more(std::size_t k) const {
    return k == 0 || seconds_since(start) < args.seconds;
  }
};

/// End-to-end metrics from an untraced run. `sample_set_up` is called
/// after every pass to add a set-up sample to `setup_times`.
Metrics run_untraced(const Run& r, Tally& tally,
                     std::map<std::string, double>& extra,
                     std::vector<double>& setup_times,
                     const std::function<void()>& sample_set_up) {
  Metrics metrics;
  Tracer off(false);
  std::vector<double> pass_wall;
  std::vector<double> events_rate;
  std::vector<double> sim_rate;
  std::vector<double> trial_ms;
  for (std::size_t k = 0; r.more(k); ++k) {
    const PassResult p = run_pass(r.w, r.setup, r.trials(k), &r.ref, off);
    tally.add(p);
    double events = 0;
    double sim_s = 0;
    for (const TrialResult& t : p.trials) {
      events += static_cast<double>(t.sim.events);
      sim_s += t.sim.sim_s;
      trial_ms.push_back(t.row.outcome.wall_ms);
    }
    pass_wall.push_back(p.wall_s);
    events_rate.push_back(events / p.wall_s);
    sim_rate.push_back(sim_s / p.wall_s);
    sample_set_up();
  }
  const std::size_t n = trial_ms.size();
  const double p90 = quantile(trial_ms, 0.9);
  const auto beyond_p90 = static_cast<std::size_t>(std::count_if(
      trial_ms.begin(), trial_ms.end(), [&](double v) { return v > p90; }));
  metrics = {
      {"wall_s", {median(pass_wall), "s"}},
      {"events_per_s", {median(events_rate), "1/s"}},
      {"sim_s_per_host_s", {median(sim_rate), "s/s"}},
      {"trial_ms_p50", {median(trial_ms), "ms"}},
      {"setup_s", {median(setup_times), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
  const double fail_ratio =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("end-to-end (%zu passes, %zu trials, %.1f s measured):\n",
              pass_wall.size(), n, seconds_since(r.start));
  const std::string per_pass = "median of " +
                               std::to_string(pass_wall.size()) + " passes";
  const std::string per_trial = "median of " + std::to_string(n) + " trials";
  const std::string notes[] = {per_pass, per_pass, per_pass, per_trial,
                               "median of " + std::to_string(setup_times.size()) + " set-up samples",
                               "VmHWM"};
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    print_metric(metrics[i].first, metrics[i].second.first,
                 metrics[i].second.second, notes[i]);
  }
  if (beyond_p90 >= 10) {
    print_metric("trial_ms_p90", p90, "ms",
                 std::to_string(n) + " trials, " +
                     std::to_string(beyond_p90) + " beyond");
    extra["trial_ms_p90"] = p90;
  } else {
    std::printf("  %-34s %14s        %zu trials, %zu beyond p90 (< 10)\n",
                "trial_ms_p90", "not printed", n, beyond_p90);
  }
  print_metric("fail_ratio", fail_ratio, "ratio",
               std::to_string(tally.failed) + "/" +
                   std::to_string(tally.attempted) + " trials");
  extra["fail_ratio"] = fail_ratio;
  extra["trials"] = static_cast<double>(n);
  extra["passes"] = static_cast<double>(pass_wall.size());
  return metrics;
}

/// Per-layer metrics from a traced run: span self times, per-trial
/// counts, tracing overhead, and the layer rows at the observed
/// occupancies.
Metrics run_traced(const Run& r, Tally& tally) {
  Metrics metrics;
  Tracer on(true);
  Tracer off(false);
  std::vector<double> ratio;
  std::vector<TrialResult> traced;
  for (std::size_t k = 0; r.more(k); ++k) {
    const auto& trials = r.trials(k);
    PassResult plain;
    PassResult with;
    if (k % 2 == 0) {
      plain = run_pass(r.w, r.setup, trials, &r.ref, off);
      with = run_pass(r.w, r.setup, trials, &r.ref, on);
    } else {
      with = run_pass(r.w, r.setup, trials, &r.ref, on);
      plain = run_pass(r.w, r.setup, trials, &r.ref, off);
    }
    tally.add(plain);
    tally.add(with);
    ratio.push_back(with.wall_s / plain.wall_s);
    for (TrialResult& t : with.trials) traced.push_back(std::move(t));
  }
  if (!r.args.spans.empty()) write_spans(r.args.spans, on.spans());
  const double n = static_cast<double>(traced.size());
  std::printf("spans (self time, %zu traced trials):\n", traced.size());
  for (const auto& [name, self] : self_seconds(on.spans())) {
    const double per_trial_ms = self * 1e3 / n;
    print_metric("span." + name + ".self_ms", per_trial_ms, "ms",
                 "per trial; total " + json_number(self) + " s");
    metrics.push_back({"span." + name + ".self_ms", {per_trial_ms, "ms"}});
  }
  std::vector<double> events, sim_s, pk_events, pk_packets, pk_bytes, loss;
  const SpecShape shape = spec_shape(*r.setup.spec);
  std::vector<double> cwnd;
  for (const TrialResult& t : traced) {
    const slowcc::exp::TrialOutcome& o = t.row.outcome;
    events.push_back(static_cast<double>(t.sim.events));
    sim_s.push_back(t.sim.sim_s);
    pk_events.push_back(static_cast<double>(o.peak_live_events));
    pk_packets.push_back(static_cast<double>(o.peak_live_packets));
    pk_bytes.push_back(static_cast<double>(o.peak_queued_bytes));
    const double d = t.row.get("drop_rate");
    if (std::isfinite(d)) loss.push_back(d);
    const double goodput = t.row.get("aggregate_goodput_bps");
    if (std::isfinite(goodput) && shape.forward_flows > 0) {
      cwnd.push_back(goodput / shape.forward_flows * shape.base_rtt_s /
                     (8.0 * shape.packet_size));
    }
  }
  std::printf("per-trial counts (median over %zu traced trials):\n",
              traced.size());
  const Metrics counts = {
      {"trial.sim.events", {median(events), "count"}},
      {"trial.sim.peak_live_events", {median(pk_events), "count"}},
      {"trial.net.peak_live_packets", {median(pk_packets), "count"}},
      {"trial.net.peak_queued_bytes", {median(pk_bytes), "bytes"}},
  };
  for (const auto& [name, vu] : counts) {
    print_metric(name, vu.first, vu.second, "");
    metrics.push_back({name, vu});
  }
  print_metric("trial.sim.sim_s", median(sim_s), "s", "simulated");
  const double overhead = median(ratio);
  print_metric("trace.wall_ratio", overhead, "ratio",
               "traced / untraced pass wall, median of " +
                   std::to_string(ratio.size()) + " pairs");
  metrics.push_back({"trace.wall_ratio", {overhead, "ratio"}});

  LayerInputs in;
  in.live_events = static_cast<std::uint64_t>(median(pk_events));
  in.live_packets = static_cast<std::uint64_t>(median(pk_packets));
  if (!loss.empty()) in.loss_rate = median(loss);
  if (!cwnd.empty()) in.cwnd_packets = median(cwnd);
  in.nodes = shape.nodes;
  in.bottleneck_bps = shape.bottleneck_bps;
  in.bottleneck_delay_s = shape.bottleneck_delay_s;
  in.base_rtt_s = shape.base_rtt_s;
  in.spec_path = r.args.root + "/" + r.w.spec_file;
  for (const TrialResult& t : traced) {
    if (in.rows.size() < 256) in.rows.push_back(t.row);
  }
  std::printf("layer rows (steady state, median of 11 reps):\n");
  for (const LayerRow& row : run_layer_rows(in)) {
    print_metric(row.name, row.value, row.unit, row.note);
    metrics.push_back({row.name, {row.value, row.unit}});
  }
  return metrics;
}

int regen(const Args& a, const WorkloadDef& w, const Setup& setup) {
  Tracer off(false);
  Reference ref;
  Tally tally;
  for (const auto& trials : setup.passes) {
    const PassResult p = run_pass(w, setup, trials, nullptr, off);
    tally.add(p);
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const RefKey key{trials[i].experiment, trials[i].algorithm,
                       trials[i].seed};
      ref[key] = RefValue{p.trials[i].sim.digest, p.trials[i].sim.events};
    }
  }
  for (const auto& f : tally.failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
  if (tally.failed != 0) return 1;
  write_reference(a.reference, w.name, ref);
  std::printf("wrote %zu reference entries to %s\n", ref.size(),
              a.reference.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slowbench: %s\n", e.what());
    return 2;
  }
  if (!kOptimized || kSanitized ||
      std::string(SLOWBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr,
                 "slowbench: refusing to time a %s build (build type %s)\n",
                 kSanitized ? "sanitizer" : "unoptimized",
                 SLOWBENCH_BUILD_TYPE);
    return 3;
  }
  const WorkloadDef& w = *find_workload(a.workload);
  const double extra_scale = a.tiny ? 0.05 : 1.0;
  const int pool_override = a.tiny ? 2 : 0;

  Setup setup;
  std::vector<double> setup_times;
  try {
    setup = set_up(w, a.root, extra_scale, pool_override);
    if (!a.regen) {
      setup_times.push_back(
          set_up_sample(w, a.root, extra_scale, pool_override));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slowbench: set-up failed: %s\n", e.what());
    return 2;
  }
  if (a.regen) return regen(a, w, setup);

  Reference ref;
  try {
    ref = read_reference(a.reference, w.name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slowbench: %s\n", e.what());
    return 2;
  }

  std::printf("slowbench %s seed %llu: %zu trials per pass, jobs %d, "
              "scale %g, %s run\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              setup.passes.front().size(), w.jobs,
              w.duration_scale * extra_scale,
              a.trace ? "traced" : "untraced");

  Tally tally;
  std::map<std::string, double> extra;
  const Run run{a, w, setup, ref, visit_order(setup.passes.size(), a.seed)};
  Metrics metrics;
  try {
    metrics = a.trace ? run_traced(run, tally)
                      : run_untraced(run, tally, extra, setup_times, [&] {
                          setup_times.push_back(set_up_sample(
                              w, a.root, extra_scale, pool_override));
                        });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slowbench: %s\n", e.what());
    return 2;
  }

  for (const auto& f : tally.failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
  const bool correct = tally.failed == 0;
  std::string extra_json = "{";
  for (const auto& [k, v] : extra) {
    if (extra_json.size() > 1) extra_json += ", ";
    extra_json += "\"" + k + "\": " + json_number(v);
  }
  extra_json += "}";
  std::printf(
      "RESULT {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s, \"extra\": %s, \"build\": {\"compiler\": \"%s %s\", "
      "\"build_type\": \"%s\", \"flags\": \"%s\"}}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      correct ? "true" : "false", tally.attempted, tally.failed,
      metrics_json(metrics).c_str(), extra_json.c_str(),
#ifdef __clang__
      "clang",
#else
      "gcc",
#endif
      __VERSION__, SLOWBENCH_BUILD_TYPE, SLOWBENCH_CXX_FLAGS);
  return correct ? 0 : 1;
}
