// slowcc_explore — run any of the library's experiments from the
// command line with custom parameters, without writing C++.
//
// Usage:
//   slowcc_explore <experiment> [key=value ...]
//
// Experiments and their keys (defaults in parentheses):
//   stabilization   algo(tfrc) gamma(256) bw_mbps(24)
//   fairness        algo(tfrc) gamma(6) period_s(2) amplitude(3)
//                   pattern(square|saw|rsaw)
//   convergence     algo(tcp) gamma(2) horizon_s(300)
//   fk              algo(tcp) gamma(2) k(20)
//   oscillation     algo(tcp) gamma(2) period_s(0.4) amplitude(3)
//   smoothness      algo(tfrc) gamma(6) pattern(mild|bursty)
//   static          algo(tcp) gamma(2) loss(0.02)
//   responsiveness  algo(tfrc) gamma(6)
//
// Common keys: conservative(0) seed(1)
//
// Bad input fails loudly: a malformed argument (no '='), a key the
// experiment does not take, a value that is not one plain number, an
// unknown algo or pattern, or a gamma that is not a positive number
// raises SimError(kBadConfig) and exits 2 before anything runs.
//
// Examples:
//   slowcc_explore fairness algo=tfrc gamma=6 period_s=4 amplitude=10
//   slowcc_explore stabilization algo=rap gamma=128
//   slowcc_explore smoothness algo=sqrt gamma=2 pattern=mild
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/sweep_spec.hpp"
#include "scenario/convergence_experiment.hpp"
#include "scenario/fairness_experiment.hpp"
#include "scenario/fk_experiment.hpp"
#include "scenario/oscillation_experiment.hpp"
#include "scenario/responsiveness_experiment.hpp"
#include "scenario/smoothness_experiment.hpp"
#include "scenario/stabilization_experiment.hpp"
#include "scenario/static_compat_experiment.hpp"
#include "sim/error.hpp"

using namespace slowcc;

namespace {

using Args = std::map<std::string, std::string>;

[[noreturn]] void bad(const std::string& detail) {
  throw sim::SimError(sim::SimErrc::kBadConfig, "slowcc_explore", detail);
}

Args parse_args(int argc, char** argv) {
  Args out;
  for (int i = 2; i < argc; ++i) {
    const std::string kv = argv[i];
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad("malformed argument '" + kv + "' (want key=value)");
    }
    out[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  return out;
}

double get_num(const Args& a, const char* key, double def) {
  auto it = a.find(key);
  if (it == a.end()) return def;
  // The sweep grammar's strict number parser; one value, not a list.
  const std::vector<double> v = exp::parse_double_list(it->second);
  if (v.size() != 1) {
    bad(std::string(key) + " expects one number, got '" + it->second + "'");
  }
  return v[0];
}

std::string get_str(const Args& a, const char* key, const char* def) {
  auto it = a.find(key);
  return it == a.end() ? def : it->second;
}

bool contains(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

std::string join(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : sep) + n;
  return out;
}

/// Reject a `pattern=` value outside `known` (a misspelt pattern must
/// not silently run the default one).
std::string get_pattern(const Args& a, const char* def,
                        const std::vector<std::string>& known) {
  const std::string pat = get_str(a, "pattern", def);
  if (!contains(known, pat)) {
    bad("unknown pattern '" + pat + "' (want " + join(known, "|") + ")");
  }
  return pat;
}

/// Spell algo/gamma/conservative as one sweep algorithm token
/// ("tfrc:6:c") and build the flow through exp::parse_flow_spec, so the
/// command line gets the sweep's algorithm checks, gamma > 0 included.
scenario::FlowSpec make_spec(const Args& a, const char* default_algo,
                             double default_gamma) {
  std::string token = get_str(a, "algo", default_algo);
  token += ":" + get_str(a, "gamma", std::to_string(default_gamma).c_str());
  if (get_num(a, "conservative", 0) != 0) token += ":c";
  return exp::parse_flow_spec(token);
}

int run_stabilization(const Args& a) {
  scenario::StabilizationConfig cfg;
  cfg.spec = make_spec(a, "tfrc", 256);
  cfg.net.bottleneck_bps = get_num(a, "bw_mbps", 24) * 1e6;
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  cfg.cbr_stop = sim::Time::seconds(60);
  cfg.cbr_restart = sim::Time::seconds(75);
  cfg.end = sim::Time::seconds(150);
  const auto out = run_stabilization(cfg);
  std::printf("spec            : %s\n", cfg.spec.label().c_str());
  std::printf("steady loss     : %.4f\n", out.steady_loss_rate);
  std::printf("stabilization   : %.0f RTTs (%.2f s)%s\n",
              out.stabilization.stabilization_time_rtts,
              out.stabilization.stabilization_time_s,
              out.stabilization.stabilized ? "" : "  [horizon-clamped]");
  std::printf("stab. cost      : %.2f\n",
              out.stabilization.stabilization_cost);
  std::printf("peak loss       : %.3f\n", out.peak_loss_rate_after_restart);
  return 0;
}

int run_fairness(const Args& a) {
  scenario::FairnessConfig cfg;
  cfg.group_b = make_spec(a, "tfrc", 6);
  cfg.cbr_period = sim::Time::seconds(get_num(a, "period_s", 2));
  const double amplitude = get_num(a, "amplitude", 3);
  // amplitude A means available bandwidth oscillates A:1.
  cfg.cbr_peak_fraction = 1.0 - 1.0 / amplitude;
  const std::string pat = get_pattern(a, "square", {"square", "saw", "rsaw"});
  cfg.pattern = pat == "saw"    ? traffic::PatternKind::kSawtooth
                : pat == "rsaw" ? traffic::PatternKind::kReverseSawtooth
                                : traffic::PatternKind::kSquare;
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_fairness(cfg);
  std::printf("TCP vs %s, period %.2f s, %g:1 %s oscillation\n",
              cfg.group_b.label().c_str(), cfg.cbr_period.as_seconds(),
              amplitude, pat.c_str());
  std::printf("TCP normalized mean   : %.2f\n", out.group_a_mean);
  std::printf("%-6s normalized mean : %.2f\n",
              cfg.group_b.label().c_str(), out.group_b_mean);
  std::printf("utilization           : %.2f\n", out.utilization);
  return 0;
}

int run_convergence(const Args& a) {
  scenario::ConvergenceConfig cfg;
  cfg.spec = make_spec(a, "tcp", 2);
  cfg.horizon = sim::Time::seconds(get_num(a, "horizon_s", 300));
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_convergence(cfg);
  std::printf("spec: %s\n", cfg.spec.label().c_str());
  if (out.result.converged) {
    std::printf("0.1-fair convergence: %.1f s\n",
                out.result.convergence_time_s);
  } else {
    std::printf("did not converge within %.0f s\n",
                cfg.horizon.as_seconds());
  }
  std::printf("final shares: %.2f / %.2f\n", out.flow1_final_share,
              out.flow2_final_share);
  return 0;
}

int run_fk(const Args& a) {
  scenario::FkConfig cfg;
  cfg.spec = make_spec(a, "tcp", 2);
  cfg.ks = {static_cast<int>(get_num(a, "k", 20)), 200};
  cfg.stop_time = sim::Time::seconds(120);
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_fk(cfg);
  std::printf("spec: %s\n", cfg.spec.label().c_str());
  for (std::size_t i = 0; i < out.ks.size(); ++i) {
    std::printf("f(%d) = %.3f\n", out.ks[i], out.f_values[i]);
  }
  std::printf("utilization before stop: %.2f\n",
              out.utilization_before_stop);
  return 0;
}

int run_oscillation(const Args& a) {
  scenario::OscillationConfig cfg;
  cfg.spec = make_spec(a, "tcp", 2);
  cfg.on_off_length = sim::Time::seconds(get_num(a, "period_s", 0.4));
  const double amplitude = get_num(a, "amplitude", 3);
  cfg.cbr_peak_fraction = 1.0 - 1.0 / amplitude;
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_oscillation(cfg);
  std::printf("spec: %s, on/off %.2f s, %g:1\n", cfg.spec.label().c_str(),
              cfg.on_off_length.as_seconds(), amplitude);
  std::printf("aggregate fraction of available: %.2f\n",
              out.aggregate_fraction);
  std::printf("drop rate: %.3f\n", out.drop_rate);
  return 0;
}

int run_smoothness(const Args& a) {
  scenario::SmoothnessConfig cfg;
  cfg.spec = make_spec(a, "tfrc", 6);
  cfg.pattern = get_pattern(a, "mild", {"mild", "bursty"}) == "bursty"
                    ? scenario::LossPattern::kMoreBursty
                    : scenario::LossPattern::kMildlyBursty;
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_smoothness(cfg);
  std::printf("spec: %s\n", cfg.spec.label().c_str());
  std::printf("smoothness : %.2f\n", out.smoothness);
  std::printf("CoV        : %.2f\n", out.cov);
  std::printf("mean rate  : %.2f Mb/s\n", out.mean_rate_bps / 1e6);
  std::printf("drops      : %lld\n",
              static_cast<long long>(out.scripted_drops));
  return 0;
}

int run_static(const Args& a) {
  scenario::StaticCompatConfig cfg;
  cfg.spec = make_spec(a, "tcp", 2);
  cfg.loss_rate = get_num(a, "loss", 0.02);
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_static_compat(cfg);
  std::printf("spec: %s at p=%.3f\n", cfg.spec.label().c_str(),
              cfg.loss_rate);
  std::printf("goodput    : %.2f Mb/s\n", out.goodput_bps / 1e6);
  std::printf("prediction : %.2f Mb/s (Padhye)\n",
              out.padhye_prediction_bps / 1e6);
  std::printf("ratio      : %.2f\n", out.ratio_to_prediction);
  return 0;
}

int run_responsiveness_cmd(const Args& a) {
  scenario::ResponsivenessConfig cfg;
  cfg.spec = make_spec(a, "tfrc", 6);
  cfg.net.seed = static_cast<std::uint64_t>(get_num(a, "seed", 1));
  const auto out = run_responsiveness(cfg);
  std::printf("spec: %s\n", cfg.spec.label().c_str());
  std::printf("responsiveness : %.0f RTTs%s\n", out.responsiveness_rtts,
              out.halved ? "" : "  [never halved]");
  std::printf("aggressiveness : %.2f pkts/RTT per RTT\n",
              out.aggressiveness_pkts_per_rtt);
  return 0;
}

struct Experiment {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string> keys;  // besides the common ones
};

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> table = {
      {"stabilization", run_stabilization, {"bw_mbps"}},
      {"fairness", run_fairness, {"period_s", "amplitude", "pattern"}},
      {"convergence", run_convergence, {"horizon_s"}},
      {"fk", run_fk, {"k"}},
      {"oscillation", run_oscillation, {"period_s", "amplitude"}},
      {"smoothness", run_smoothness, {"pattern"}},
      {"static", run_static, {"loss"}},
      {"responsiveness", run_responsiveness_cmd, {}},
  };
  return table;
}

/// Reject keys the experiment never reads: a misspelt key (gama=2)
/// must not silently run with the default value.
void check_keys(const Experiment& e, const Args& a) {
  std::vector<std::string> known = {"algo", "gamma", "conservative", "seed"};
  known.insert(known.end(), e.keys.begin(), e.keys.end());
  for (const auto& [key, value] : a) {
    if (!contains(known, key)) {
      bad("unknown key '" + key + "' for " + e.name + " (known: " +
          join(known, " ") + ")");
    }
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: slowcc_explore <experiment> [key=value ...]\n"
      "experiments: stabilization fairness convergence fk oscillation\n"
      "             smoothness static responsiveness\n"
      "see the header of tools/slowcc_explore.cpp for keys and examples\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const Args args = parse_args(argc, argv);
    const std::string cmd = argv[1];
    for (const Experiment& e : experiments()) {
      if (cmd != e.name) continue;
      check_keys(e, args);
      return e.run(args);
    }
  } catch (const sim::SimError& ex) {
    std::fprintf(stderr, "slowcc_explore: %s\n", ex.what());
    return 2;
  }
  usage();
  return 2;
}
