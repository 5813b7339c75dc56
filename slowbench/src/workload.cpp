#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "exp/parallel_runner.hpp"
#include "spec/spec_registry.hpp"

namespace slowbench {

namespace se = slowcc::exp;
namespace ss = slowcc::spec;

namespace {

// Why these two (README.md has the full table): fig03_tcp is a long
// steady-state run bound by engine/link/node plumbing; fig14_tfrc puts
// rate-based agents and their per-packet timers and loss history on the
// hot path. Both run four trials at once: on a shared VM one worker's
// figures follow whichever CPU it sits on, while four average over all
// of them.
const std::vector<WorkloadDef>& defs() {
  static const std::vector<WorkloadDef> d = {
      {.name = "fig03_tcp",
       .spec_file = "specs/paper_fig03_stabilization.toml",
       .algorithms = {"tcp"},
       .jobs = 4,
       .pool = 64,
       .per_pass = 8},
      {.name = "fig14_tfrc",
       .spec_file = "specs/paper_fig14_oscillation.toml",
       .algorithms = {"tfrc:6"},
       .jobs = 4,
       .pool = 128,
       .per_pass = 16},
  };
  return d;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : defs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& w : defs()) out.push_back(w.name);
  return out;
}

Setup set_up(const WorkloadDef& w, const std::string& root,
             double extra_scale, int pool_override) {
  Setup s;
  s.spec = std::make_shared<const ss::ScenarioSpec>(
      ss::parse_scenario_file(root + "/" + w.spec_file));
  s.experiment = ss::make_spec_experiment(s.spec);
  const int pool = pool_override > 0 ? pool_override : w.pool;
  const double scale = w.duration_scale * extra_scale;
  se::SweepSpec grid;
  grid.experiment = s.spec->scenario.name;
  grid.algorithms = w.algorithms;
  grid.trials = pool;
  grid.base_seed = 1;
  grid.duration_scale = scale;
  std::vector<se::TrialDesc> entries = grid.expand();
  const auto per_pass = static_cast<std::size_t>(std::min(w.per_pass, pool));
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (k % per_pass == 0) s.passes.emplace_back();
    entries[k].trial_id = s.passes.back().size();
    s.passes.back().push_back(std::move(entries[k]));
  }
  return s;
}

namespace {

/// A spec number as the compiler reads it: a $ref takes its [params]
/// default, an absent field takes `fallback`.
double resolve(const ss::ScenarioSpec& spec, const ss::Num& n,
               double fallback) {
  if (n.is_ref()) {
    for (const ss::ParamDecl& p : spec.params) {
      if (p.name == n.ref) return p.default_value;
    }
    throw std::runtime_error(spec.source + ": unknown $" + n.ref);
  }
  return n.set ? n.value : fallback;
}

}  // namespace

SpecShape spec_shape(const ss::ScenarioSpec& spec) {
  const ss::TopologySection& t = spec.topology;
  SpecShape s;
  int hosts_pairs = static_cast<int>(resolve(spec, t.reverse_tcp_flows, 2));
  for (const ss::FlowGroup& g : spec.flows) {
    const int count = static_cast<int>(resolve(spec, g.count, 1));
    hosts_pairs += count;
    if (g.forward) s.forward_flows += count;
  }
  // cbr, onoff and media add a host pair; a flash crowd its own pair.
  hosts_pairs += static_cast<int>(spec.traffic.size());
  s.nodes = 2 + 2 * hosts_pairs;
  s.bottleneck_bps = resolve(spec, t.bottleneck_mbps, 10) * 1e6;
  s.bottleneck_delay_s = resolve(spec, t.bottleneck_delay_ms, 23) / 1e3;
  const double access_s = resolve(spec, t.access_delay_ms, 1) / 1e3;
  s.base_rtt_s = 2 * (2 * access_s + s.bottleneck_delay_s);
  s.packet_size = resolve(spec, t.mean_packet_size, 1000);
  return s;
}

Reference read_reference(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference " + path);
  std::string line;
  std::getline(in, line);
  if (line != "slowbench.reference.v1 " + workload) {
    throw std::runtime_error(path + ": bad header '" + line + "'");
  }
  Reference ref;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    RefKey k;
    RefValue v;
    std::string seed;
    std::string digest;
    if (!(is >> k.experiment >> k.algorithm >> seed >> digest >> v.events)) {
      throw std::runtime_error(path + ": malformed line '" + line + "'");
    }
    k.seed = std::stoull(seed, nullptr, 16);
    v.digest = std::stoull(digest, nullptr, 16);
    ref[k] = v;
  }
  return ref;
}

void write_reference(const std::string& path, const std::string& workload,
                     const Reference& ref) {
  std::ofstream out(path);
  out << "slowbench.reference.v1 " << workload << "\n"
      << "# experiment algorithm seed trace_digest events\n";
  for (const auto& [k, v] : ref) {
    out << k.experiment << ' ' << k.algorithm << ' ' << hex(k.seed) << ' '
        << hex(v.digest) << ' ' << v.events << "\n";
  }
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

PassResult run_pass(const WorkloadDef& w, const Setup& setup,
                    const std::vector<se::TrialDesc>& trials,
                    const Reference* reference, Tracer& tracer) {
  PassResult out;
  std::vector<std::vector<SimRecord>> records(trials.size());
  const Clock::time_point t0 = Clock::now();
  std::vector<se::Row> rows;
  {
    ScopedSpan dispatch(tracer, "exp.dispatch");
    const std::uint64_t parent = dispatch.id();
    const se::ParallelRunner runner(w.jobs);
    rows = runner.run(trials, [&](const se::TrialDesc& d) {
      // Slots are disjoint per trial id, so workers never share one.
      const ProbeScope probe(records[d.trial_id], tracer, tracer.enabled());
      const ScopedSpan span(tracer, "spec.run_scenario", parent);
      return setup.experiment.run(d);
    });
  }
  {
    const ScopedSpan span(tracer, "exp.row_json");
    std::string jsonl;
    for (const se::Row& r : rows) {
      jsonl += r.to_json();
      jsonl += '\n';
    }
  }
  out.wall_s = seconds_since(t0);

  out.trials.resize(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    TrialResult& t = out.trials[i];
    t.row = std::move(rows[i]);
    const bool probed = records[i].size() == 1;
    if (probed) t.sim = records[i].front();
    if (!t.row.outcome.ok) {
      t.why = "trial error: " + t.row.error;
    } else if (!probed) {
      t.why = "observed " + std::to_string(records[i].size()) +
              " simulators, expected 1";
    } else if (reference != nullptr) {
      const RefKey key{trials[i].experiment, trials[i].algorithm,
                       trials[i].seed};
      const auto it = reference->find(key);
      if (it == reference->end()) {
        t.why = "no reference entry";
      } else if (it->second.digest != t.sim.digest ||
                 it->second.events != t.sim.events) {
        t.why = "digest " + hex(t.sim.digest) + "/" +
                std::to_string(t.sim.events) + " events, reference " +
                hex(it->second.digest) + "/" +
                std::to_string(it->second.events);
      }
    }
    t.ok = t.why.empty();
  }
  return out;
}

}  // namespace slowbench
