// slowcc_sweep — parallel, crash-safe experiment-orchestration driver.
//
// Expands a parameter grid (algorithm x bandwidth x RTT x swept
// parameter x trials) over one registered experiment, runs every trial
// concurrently with a work-stealing thread pool under a quarantine
// (one throwing or hung trial becomes a failure row, never an abort),
// and reduces the rows to per-cell statistics (mean / stddev / 95% CI
// / percentiles) plus a per-cell failure manifest.
//
// Examples:
//   slowcc_sweep --list
//   slowcc_sweep --experiment static_compat --algorithms tcp,tfrc:6
//       --trials 4 --jobs 8 --duration-scale 0.1
//   slowcc_sweep --experiment oscillation --algorithms tcp:8,tcp:2,tfrc:6
//       --sweep on_off_length=0.05,0.2,0.8 --trials 3 --out /tmp/fig14
//   slowcc_sweep --spec sweep.spec --jobs 8 --selfcheck
//   slowcc_sweep --spec sweep.spec --resume /tmp/ckpt --max-attempts 2
//       --trial-wall-seconds 300
//   slowcc_sweep --spec specs/wifi_jitter_burst.toml --algorithms
//       tcp,tfrc:6 --trials 3 --sweep burst_loss=0.2,0.5 --resume /tmp/w
//
// --spec accepts two formats: a legacy key=value sweep file, or a
// declarative scenario spec (*.toml, see DESIGN.md SS12). A .toml spec
// is compiled and registered as a first-class experiment named after
// its [scenario] name; --algorithms fills its "$algorithm" hole and
// --sweep/--set drive its declared [params].
//
// With --out PREFIX, writes PREFIX.trials.{jsonl,csv},
// PREFIX.cells.{jsonl,csv}, and PREFIX.manifest.jsonl; otherwise
// prints an aggregate table and the per-cell JSON lines to stdout.
// --resume DIR makes the run crash-safe: every finished trial is
// journaled (append + flush) into DIR, final outputs land in DIR via
// atomic tmp+rename, and re-running the same command after a crash —
// or a SIGKILL — re-executes only the failed/missing trials, yielding
// byte-identical trials/cells files to an uninterrupted run.
// --selfcheck re-runs the executed trials single-threaded and
// byte-compares the serialized results — the determinism guarantee the
// subsystem is built around.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/checkpoint.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/registry.hpp"
#include "exp/result_sink.hpp"
#include "exp/serialize.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/error.hpp"
#include "spec/spec_registry.hpp"

using namespace slowcc;

namespace {

int usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --list                       list registered experiments (incl. "
      "loaded --spec scenarios) and exit\n"
      "  --spec PATH                  load a sweep spec file (key = value "
      "lines), a scenario spec (*.toml), or a directory of scenario specs "
      "(every *.toml, sorted)\n"
      "  --experiment NAME            experiment to run\n"
      "  --algorithms A,B,...         algorithm tokens (tcp, tcp:8, "
      "tfrc:6:c, tcp+tfrc:6)\n"
      "  --bandwidths-mbps X,Y        bottleneck bandwidth axis\n"
      "  --rtts-ms X,Y                base-RTT axis\n"
      "  --sweep NAME=V1,V2,...       sweep an experiment parameter\n"
      "  --set NAME=VALUE             fix an experiment parameter\n"
      "  --trials N                   replicates per grid cell (default 1)\n"
      "  --base-seed S                master seed (default 1)\n"
      "  --duration-scale F           scale all experiment timelines\n"
      "  --jobs N                     worker threads (default: all cores)\n"
      "  --max-attempts N             retries per failed trial (default 1 = "
      "no retry)\n"
      "  --trial-max-events N         per-trial simulator event budget "
      "(deterministic deadline)\n"
      "  --trial-wall-seconds S       per-trial wall-clock backstop "
      "(hang killer)\n"
      "  --trial-max-bytes B[k|m|g]   per-trial modeled-memory budget; a "
      "trial crossing it aborts as resource-exhausted (one retry at half "
      "budget, then quarantine)\n"
      "  --trial-weight-cap N         admission-weight ceiling: a weight-w "
      "trial occupies w of --jobs while it runs (default 4)\n"
      "  --chaos P                    inject a deterministic synthetic "
      "failure into each attempt with probability P (self-test)\n"
      "  --resume DIR                 crash-safe checkpointed run in DIR; "
      "re-running resumes it\n"
      "  --out PREFIX                 write PREFIX.trials/.cells/.manifest "
      "files\n"
      "  --selfcheck                  verify jobs=N output == jobs=1 "
      "output\n"
      "  --quiet                      no progress on stderr\n"
      "exit codes: 0 ok, 1 trial failures, 2 usage/config error\n",
      argv0);
  return code;
}

void list_experiments() {
  for (const exp::Experiment& e : exp::experiments()) {
    std::printf("%-16s %s\n", e.name.c_str(), e.description.c_str());
    std::string params;
    for (const std::string& p : e.params) {
      params += params.empty() ? "" : ", ";
      params += p;
    }
    std::printf("%-16s   params: %s\n", "", params.c_str());
  }
}

/// Parse a byte count with an optional k/m/g suffix (powers of 1024):
/// "64m" == 67108864. Returns false on a malformed count.
bool parse_byte_count(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long base = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  std::uint64_t mult = 1;
  if (*end == 'k' || *end == 'K') {
    mult = std::uint64_t{1} << 10;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    mult = std::uint64_t{1} << 20;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    mult = std::uint64_t{1} << 30;
    ++end;
  }
  if (*end != '\0') return false;
  *out = static_cast<std::uint64_t>(base) * mult;
  return true;
}

/// A count flag (--jobs, --max-attempts, --trial-weight-cap): all of
/// the value as an unsigned decimal in [1, INT_MAX].
int positive_int(const std::string& flag, const std::string& text) {
  const std::uint64_t v = exp::parse_unsigned(text, flag);
  if (v < 1 || v > static_cast<std::uint64_t>(INT_MAX)) {
    throw sim::SimError(sim::SimErrc::kBadConfig, flag,
                        "must be in [1, " + std::to_string(INT_MAX) +
                            "], got '" + text + "'");
  }
  return static_cast<int>(v);
}

bool write_file(const std::string& path, const std::string& content) {
  std::string err;
  if (!exp::write_file_atomic(path, content, &err)) {
    std::fprintf(stderr, "slowcc_sweep: %s\n", err.c_str());
    return false;
  }
  return true;
}

void print_cells_table(const std::vector<exp::CellStats>& cells) {
  std::printf("%-52s %-28s %3s %12s %12s %12s\n", "cell", "metric", "n",
              "mean", "ci95", "stddev");
  for (const exp::CellStats& c : cells) {
    for (const exp::MetricStats& m : c.metrics) {
      std::printf("%-52s %-28s %3zu %12.4g %12.4g %12.4g\n", c.cell.c_str(),
                  m.name.c_str(), m.n, m.mean, m.ci95, m.stddev);
    }
    if (c.errors > 0) {
      std::printf("%-52s !! %zu trial(s) errored\n", c.cell.c_str(),
                  c.errors);
    }
  }
}

/// Removes its files on every exit path — the selfcheck comparison
/// dumps must never outlive the process, pass or fail.
class TempFileGuard {
 public:
  ~TempFileGuard() {
    std::error_code ec;
    for (const std::string& p : paths_) std::filesystem::remove(p, ec);
  }
  void track(std::string path) { paths_.push_back(std::move(path)); }

 private:
  std::vector<std::string> paths_;
};

/// Canonical fingerprint of the fault-tolerance policy, stored in a
/// checkpoint so a resume under different flags at least warns.
std::string policy_text(const exp::RunnerPolicy& p) {
  std::string out;
  out += "max_attempts = " + std::to_string(p.max_attempts) + "\n";
  out += "chaos = " + exp::json_number(p.chaos_rate) + "\n";
  out += "trial_max_events = " + std::to_string(p.max_trial_events) + "\n";
  out += "trial_wall_seconds = " +
         exp::json_number(p.max_trial_wall_seconds) + "\n";
  out += "trial_max_bytes = " + std::to_string(p.max_trial_bytes) + "\n";
  out += "trial_weight_cap = " + std::to_string(p.trial_weight_cap) + "\n";
  return out;
}

/// First line where the two serializations diverge (diagnostics).
void report_divergence(const std::string& a, const std::string& b) {
  std::size_t line = 1;
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && ib < b.size()) {
    const std::size_t ea = a.find('\n', ia);
    const std::size_t eb = b.find('\n', ib);
    const std::string la = a.substr(ia, ea - ia);
    const std::string lb = b.substr(ib, eb - ib);
    if (la != lb) {
      std::fprintf(stderr,
                   "slowcc_sweep: first divergence at line %zu:\n"
                   "  jobs=N: %s\n  jobs=1: %s\n",
                   line, la.c_str(), lb.c_str());
      return;
    }
    if (ea == std::string::npos || eb == std::string::npos) break;
    ia = ea + 1;
    ib = eb + 1;
    ++line;
  }
  std::fprintf(stderr, "slowcc_sweep: outputs diverge in length\n");
}

}  // namespace

int main(int argc, char** argv) {
  exp::SweepSpec spec;
  exp::RunnerPolicy policy;
  bool spec_loaded = false;
  bool list_requested = false;
  bool algorithms_set = false;
  // Every scenario spec (*.toml) loaded via --spec; all are registered
  // as experiments, and the one matching spec.experiment (resolved
  // after parsing) is the sweep target.
  std::vector<slowcc::spec::RegisteredScenario> scenarios;
  int jobs = exp::ParallelRunner::default_jobs();
  std::string out_prefix;
  std::string resume_dir;
  bool selfcheck = false;
  bool quiet = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "slowcc_sweep: %s needs a value\n",
                       arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        return usage(argv[0], 0);
      } else if (arg == "--list") {
        // Deferred past argument parsing so later --spec loads still
        // land in the listing.
        list_requested = true;
      } else if (arg == "--spec") {
        const std::string path = value();
        std::error_code dir_ec;
        if (std::filesystem::is_directory(path, dir_ec)) {
          // A directory of scenario specs: register every *.toml in
          // sorted order (stable --list). With exactly one spec it is
          // the sweep target; otherwise pick one with --experiment.
          std::vector<std::string> files;
          for (const auto& entry :
               std::filesystem::directory_iterator(path)) {
            if (entry.path().extension() == ".toml") {
              files.push_back(entry.path().string());
            }
          }
          std::sort(files.begin(), files.end());
          if (files.empty()) {
            std::fprintf(stderr,
                         "slowcc_sweep: --spec directory %s holds no "
                         "*.toml scenario specs\n",
                         path.c_str());
            return 2;
          }
          for (const std::string& f : files) {
            scenarios.push_back(slowcc::spec::load_spec_file(f));
          }
          if (files.size() == 1) {
            spec.experiment = scenarios.back().experiment;
          }
        } else if (path.size() >= 5 &&
                   path.compare(path.size() - 5, 5, ".toml") == 0) {
          scenarios.push_back(slowcc::spec::load_spec_file(path));
          spec.experiment = scenarios.back().experiment;
        } else {
          spec = exp::SweepSpec::parse_file(path);
        }
        spec_loaded = true;
      } else if (arg == "--experiment") {
        spec.experiment = value();
        spec_loaded = true;
      } else if (arg == "--algorithms") {
        spec.assign("algorithms", value());
        algorithms_set = true;
      } else if (arg == "--bandwidths-mbps") {
        spec.assign("bandwidths_mbps", value());
      } else if (arg == "--rtts-ms") {
        spec.assign("rtts_ms", value());
      } else if (arg == "--sweep" || arg == "--set") {
        const std::string kv = value();
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          std::fprintf(stderr, "slowcc_sweep: %s expects NAME=VALUES\n",
                       arg.c_str());
          return 2;
        }
        const std::string prefix = arg == "--sweep" ? "sweep " : "set ";
        spec.assign(prefix + kv.substr(0, eq), kv.substr(eq + 1));
      } else if (arg == "--trials") {
        spec.assign("trials", value());
      } else if (arg == "--base-seed") {
        spec.assign("base_seed", value());
      } else if (arg == "--duration-scale") {
        spec.assign("duration_scale", value());
      } else if (arg == "--jobs") {
        jobs = positive_int(arg, value());
      } else if (arg == "--max-attempts") {
        policy.max_attempts = positive_int(arg, value());
      } else if (arg == "--trial-max-events") {
        policy.max_trial_events = exp::parse_unsigned(value(), arg);
      } else if (arg == "--trial-wall-seconds") {
        policy.max_trial_wall_seconds = exp::parse_finite(value(), arg);
      } else if (arg == "--trial-max-bytes") {
        const std::string v = value();
        if (!parse_byte_count(v, &policy.max_trial_bytes)) {
          std::fprintf(stderr,
                       "slowcc_sweep: --trial-max-bytes expects "
                       "BYTES[k|m|g]: '%s'\n",
                       v.c_str());
          return 2;
        }
      } else if (arg == "--trial-weight-cap") {
        policy.trial_weight_cap = positive_int(arg, value());
      } else if (arg == "--chaos") {
        policy.chaos_rate = exp::parse_finite(value(), arg);
      } else if (arg == "--resume") {
        resume_dir = value();
      } else if (arg == "--out") {
        out_prefix = value();
      } else if (arg == "--selfcheck") {
        selfcheck = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::fprintf(stderr, "slowcc_sweep: unknown option %s\n",
                     arg.c_str());
        return usage(argv[0], 2);
      }
    }
    if (list_requested) {
      list_experiments();
      return 0;
    }
    if (!spec_loaded) return usage(argv[0], 2);
    if (spec.experiment.empty()) {
      if (scenarios.empty()) {
        std::fprintf(stderr,
                     "slowcc_sweep: no experiment named; pick one with "
                     "--experiment NAME (or --list to enumerate)\n");
      } else {
        std::fprintf(stderr,
                     "slowcc_sweep: --spec loaded %zu scenarios; pick one "
                     "with --experiment NAME (or --list to enumerate)\n",
                     scenarios.size());
      }
      return 2;
    }
    const slowcc::spec::RegisteredScenario* scenario = nullptr;
    for (const slowcc::spec::RegisteredScenario& s : scenarios) {
      if (s.experiment == spec.experiment) {
        scenario = &s;
        break;
      }
    }
    if (scenario != nullptr) {
      if (!algorithms_set) {
        // No --algorithms: run the scenario's declared default.
        spec.algorithms = {scenario->default_algorithm};
      } else if (!scenario->uses_algorithm_hole &&
                 (spec.algorithms.size() != 1 ||
                  spec.algorithms[0] != scenario->default_algorithm)) {
        std::fprintf(stderr,
                     "slowcc_sweep: scenario '%s' pins every [[flows]] "
                     "algorithm (no \"$algorithm\" hole) — --algorithms "
                     "cannot vary it\n",
                     scenario->experiment.c_str());
        return 2;
      }
      // Swept/fixed parameters must be declared in [params]; failing
      // here beats failing inside every trial of the grid.
      const auto known_param = [&](const std::string& name) {
        if (scenario->spec->find_param(name) != nullptr) return true;
        std::fprintf(stderr,
                     "slowcc_sweep: scenario '%s' declares no [params] "
                     "entry '%s'\n",
                     scenario->experiment.c_str(), name.c_str());
        return false;
      };
      if (!spec.sweep_param.empty() && !known_param(spec.sweep_param)) {
        return 2;
      }
      for (const auto& [name, fixed_value] : spec.fixed) {
        (void)fixed_value;
        if (!known_param(name)) return 2;
      }
      // The scenario's [limits] budgets are policy defaults: explicit
      // --trial-max-events / --trial-max-bytes flags win.
      if (policy.max_trial_events == 0 &&
          scenario->spec->limits.max_events > 0) {
        policy.max_trial_events =
            static_cast<std::uint64_t>(scenario->spec->limits.max_events);
      }
      if (policy.max_trial_bytes == 0 &&
          scenario->spec->limits.max_bytes > 0) {
        policy.max_trial_bytes =
            static_cast<std::uint64_t>(scenario->spec->limits.max_bytes);
      }
    }
    if (exp::find_experiment(spec.experiment) == nullptr) {
      std::fprintf(stderr,
                   "slowcc_sweep: unknown experiment '%s' (try --list)\n",
                   spec.experiment.c_str());
      return 2;
    }
    policy.chaos_seed = spec.base_seed;

    const std::vector<exp::TrialDesc> all_trials = spec.expand();
    if (!quiet) {
      std::fprintf(stderr, "slowcc_sweep: %s, %d jobs\n",
                   spec.describe().c_str(), jobs);
    }

    // Admission weight from the registry: a weight-w experiment's
    // trials occupy w of the runner's capacity units while running
    // (memory-heavy trials don't all start at once). Weights only
    // schedule; they never change row content.
    const auto weight_of = [](const exp::TrialDesc& d) {
      const exp::Experiment* e = exp::find_experiment(d.experiment);
      return e != nullptr ? e->weight : 1;
    };

    exp::ParallelRunner runner(jobs);
    runner.set_policy(policy);
    runner.set_weight_fn(weight_of);

    // Checkpoint: recover finished work, journal new work.
    std::unique_ptr<exp::Checkpoint> checkpoint;
    std::vector<exp::TrialDesc> trials = all_trials;
    std::vector<exp::Row> recovered;
    if (!resume_dir.empty()) {
      checkpoint = std::make_unique<exp::Checkpoint>(resume_dir);
      std::string warning;
      const bool resuming =
          checkpoint->open(spec, policy_text(policy), &warning);
      if (!warning.empty()) {
        std::fprintf(stderr, "slowcc_sweep: warning: %s\n", warning.c_str());
      }
      if (resuming) {
        exp::Checkpoint::Plan plan = checkpoint->plan(all_trials);
        if (!quiet) {
          std::fprintf(stderr,
                       "slowcc_sweep: resume: %zu/%zu trials recovered "
                       "(%zu/%zu cells complete), %zu to run, torn tail: "
                       "%s\n",
                       plan.recovered.size(), all_trials.size(),
                       plan.cells_done, plan.cells_total,
                       plan.pending.size(),
                       plan.torn_tail
                           ? "yes (killed mid-write; partial line ignored)"
                           : "no");
        }
        trials = std::move(plan.pending);
        recovered = std::move(plan.recovered);
      }
      runner.set_on_row(
          [&checkpoint](const exp::Row& r) { checkpoint->record(r); });
    }

    if (!quiet && !trials.empty()) {
      runner.set_progress([](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\rslowcc_sweep: %zu/%zu trials", done, total);
        if (done == total) std::fprintf(stderr, "\n");
      });
    }

    // slowcc-lint: allow(no-wall-clock) operator-facing elapsed-time display
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<exp::Row> rows = runner.run(trials);
    // slowcc-lint: allow(no-wall-clock) operator-facing elapsed-time display
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    if (selfcheck) {
      // The comparison dumps are real files (handy to diff by hand when
      // this ever fires) but are removed on every exit path.
      TempFileGuard tmp_guard;
      exp::ParallelRunner serial(1);
      serial.set_policy(policy);
      serial.set_weight_fn(weight_of);
      const std::vector<exp::Row> rows1 = serial.run(trials);
      const std::string got = exp::rows_to_jsonl(rows);
      const std::string want = exp::rows_to_jsonl(rows1);
      const std::string tmp_base =
          (out_prefix.empty() ? std::string("slowcc_sweep") : out_prefix) +
          ".selfcheck";
      if (write_file(tmp_base + ".jobsN.jsonl", got)) {
        tmp_guard.track(tmp_base + ".jobsN.jsonl");
      }
      if (write_file(tmp_base + ".jobs1.jsonl", want)) {
        tmp_guard.track(tmp_base + ".jobs1.jsonl");
      }
      if (got != want ||
          exp::cells_to_jsonl(exp::aggregate(rows1)) !=
              exp::cells_to_jsonl(exp::aggregate(rows))) {
        std::fprintf(stderr,
                     "slowcc_sweep: SELFCHECK FAILED — jobs=%d and jobs=1 "
                     "outputs differ\n",
                     jobs);
        report_divergence(got, want);
        return 1;
      }
      if (!quiet) {
        std::fprintf(stderr,
                     "slowcc_sweep: selfcheck ok (jobs=%d == jobs=1)\n",
                     jobs);
      }
    }

    // Merge recovered and fresh rows back into trial-id order.
    rows.insert(rows.end(), std::make_move_iterator(recovered.begin()),
                std::make_move_iterator(recovered.end()));
    std::sort(rows.begin(), rows.end(),
              [](const exp::Row& a, const exp::Row& b) {
                return a.trial_id < b.trial_id;
              });
    const std::vector<exp::CellStats> cells = exp::aggregate(rows);
    if (!quiet) {
      std::fprintf(stderr, "slowcc_sweep: %zu trials in %.2f s wall\n",
                   rows.size(), wall);
    }

    std::size_t failed = 0;
    std::vector<std::string> kinds;
    for (const exp::Row& r : rows) {
      if (r.error.empty()) continue;
      ++failed;
      const std::string kind =
          r.outcome.error_kind.empty() ? "exception" : r.outcome.error_kind;
      if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
        kinds.push_back(kind);
      }
    }
    if (failed > 0) {
      std::string kind_list;
      for (const std::string& k : kinds) {
        kind_list += kind_list.empty() ? "" : ", ";
        kind_list += k;
      }
      std::fprintf(stderr,
                   "slowcc_sweep: %zu trial(s) quarantined as failed "
                   "(%s); see the failure manifest\n",
                   failed, kind_list.c_str());
    }

    if (checkpoint != nullptr) {
      std::string err;
      if (!checkpoint->finalize(rows, cells, &err)) {
        std::fprintf(stderr, "slowcc_sweep: %s\n", err.c_str());
        return 2;
      }
      if (!quiet) {
        std::fprintf(stderr,
                     "slowcc_sweep: checkpoint finalized in %s "
                     "(trials/cells/manifest)\n",
                     resume_dir.c_str());
      }
    }
    if (!out_prefix.empty()) {
      std::ostringstream tj, tc, cj, cc, mf;
      exp::write_rows_jsonl(tj, rows);
      exp::write_rows_csv(tc, rows);
      exp::write_cells_jsonl(cj, cells);
      exp::write_cells_csv(cc, cells);
      exp::write_manifest_jsonl(mf, rows);
      if (!write_file(out_prefix + ".trials.jsonl", tj.str()) ||
          !write_file(out_prefix + ".trials.csv", tc.str()) ||
          !write_file(out_prefix + ".cells.jsonl", cj.str()) ||
          !write_file(out_prefix + ".cells.csv", cc.str()) ||
          !write_file(out_prefix + ".manifest.jsonl", mf.str())) {
        return 1;
      }
      if (!quiet) {
        std::fprintf(stderr,
                     "slowcc_sweep: wrote %s.{trials,cells}.{jsonl,csv} "
                     "and %s.manifest.jsonl\n",
                     out_prefix.c_str(), out_prefix.c_str());
      }
    }
    if (checkpoint == nullptr && out_prefix.empty()) {
      print_cells_table(cells);
      std::printf("\n");
      for (const exp::CellStats& c : cells) {
        std::printf("%s\n", c.to_json().c_str());
      }
    }
    return failed > 0 ? 1 : 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "slowcc_sweep: %s\n", ex.what());
    return 2;
  }
}
