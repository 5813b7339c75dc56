#include "exp/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "exp/registry.hpp"
#include "exp/seed.hpp"
#include "fault/trial_scope.hpp"
#include "sim/error.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::exp {
namespace {

// Stream constants keeping runner-derived seeds disjoint from the
// scenario-internal sub-streams (which use small indices 0..k).
constexpr std::uint64_t kRetryStream = 0x7265747279;  // "retry"
constexpr std::uint64_t kChaosStream = 0x6368616f73;  // "chaos"

/// Stamp a row with a trial's identity — used when the row had to be
/// synthesized from an exception instead of coming back from fn.
void stamp_identity(Row& row, const TrialDesc& d) {
  row.trial_id = d.trial_id;
  row.experiment = d.experiment;
  row.algorithm = d.algorithm;
  row.cell = d.cell_key();
  row.trial_index = d.trial_index;
  row.seed = d.seed;
}

}  // namespace

std::uint64_t retry_seed(std::uint64_t trial_seed, int attempt) noexcept {
  return derive_seed(trial_seed, kRetryStream,
                     static_cast<std::uint64_t>(attempt));
}

ParallelRunner::ParallelRunner(int jobs) : jobs_(jobs) {
  if (jobs < 1) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "jobs must be >= 1");
  }
}

int ParallelRunner::default_jobs() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelRunner::set_policy(const RunnerPolicy& policy) {
  if (policy.max_attempts < 1) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "max_attempts must be >= 1");
  }
  if (!(policy.chaos_rate >= 0.0 && policy.chaos_rate <= 1.0)) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "chaos_rate must be in [0, 1]");
  }
  if (!(policy.max_trial_wall_seconds >= 0.0) ||
      std::isinf(policy.max_trial_wall_seconds)) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "max_trial_wall_seconds must be finite and >= 0");
  }
  if (policy.deadline_check_every == 0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "deadline_check_every must be >= 1");
  }
  if (!(policy.mem_watermark_fraction > 0.0) ||
      policy.mem_watermark_fraction > 1.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "mem_watermark_fraction must be in (0, 1]");
  }
  if (policy.trial_weight_cap < 1) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "ParallelRunner",
                        "trial_weight_cap must be >= 1");
  }
  policy_ = policy;
}

Row ParallelRunner::run_quarantined(
    const TrialDesc& trial,
    const std::function<Row(const TrialDesc&)>& fn) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events_start = sim::Simulator::thread_events_executed();

  Row row;
  int attempts = 0;
  // Resource exhaustion composes with the retry policy by granting one
  // extra attempt: after the first kResourceExhausted failure every
  // further attempt (including the bonus) runs at half the byte
  // budget, so a trial that merely spiked can still finish while a
  // true memory bomb fails fast — and then quarantines. Deterministic:
  // the grant depends only on prior attempt outcomes.
  int resource_failures = 0;
  for (int attempt = 0;; ++attempt) {
    const int allowed = policy_.max_attempts + (resource_failures > 0 ? 1 : 0);
    if (attempt >= allowed) break;
    TrialDesc d = trial;
    d.attempt = attempt;
    if (attempt > 0) d.seed = retry_seed(trial.seed, attempt);
    ++attempts;
    std::uint64_t bytes_budget = policy_.max_trial_bytes;
    if (bytes_budget != 0 && resource_failures > 0) bytes_budget /= 2;
    sim::ResourceGovernor::reset_thread_peaks();
    bool resource_exhausted = false;
    try {
      if (policy_.chaos_rate > 0.0) {
        sim::Rng roll(derive_seed(derive_seed(policy_.chaos_seed,
                                              kChaosStream),
                                  d.trial_id,
                                  static_cast<std::uint64_t>(attempt)));
        if (roll.chance(policy_.chaos_rate)) {
          throw sim::SimError(
              sim::SimErrc::kTrialAborted, "ChaosInjector",
              "injected failure (trial " + std::to_string(d.trial_id) +
                  ", attempt " + std::to_string(attempt) + ")");
        }
      }
      const fault::TrialDeadlineConfig deadline{
          policy_.max_trial_events, policy_.max_trial_wall_seconds,
          policy_.deadline_check_every, bytes_budget,
          policy_.mem_watermark_fraction};
      const fault::ScopedTrialDeadline guard(deadline);
      row = fn(d);
      stamp_identity(row, d);
      row.outcome.ok = row.error.empty();
      if (!row.outcome.ok && row.outcome.error_kind.empty()) {
        // fn reported an error without classifying it (custom fns).
        row.outcome.error_kind = "exception";
      }
      // run_trial converts exceptions into error rows itself, so a
      // resource abort from the registry path arrives here as data.
      resource_exhausted =
          !row.outcome.ok &&
          row.outcome.error_kind ==
              sim::to_string(sim::SimErrc::kResourceExhausted);
    } catch (const sim::SimError& ex) {
      row = Row{};
      stamp_identity(row, d);
      row.error = ex.what();
      row.outcome.ok = false;
      row.outcome.error_kind = sim::to_string(ex.code());
      resource_exhausted = ex.code() == sim::SimErrc::kResourceExhausted;
    } catch (const std::exception& ex) {
      row = Row{};
      stamp_identity(row, d);
      row.error = ex.what();
      row.outcome.ok = false;
      row.outcome.error_kind = "exception";
    }
    // Stamp this attempt's governor peaks; the final attempt's stamp is
    // the one that stands with its row. The thread-local peaks survive
    // the Simulator that produced them, which is what makes this
    // readable after the exception tore the scenario down.
    {
      const sim::ResourceUsage& pk = sim::ResourceGovernor::thread_peaks();
      row.outcome.peak_live_events = pk.live_events;
      row.outcome.peak_live_packets = pk.live_packets;
      row.outcome.peak_queued_bytes = pk.queued_bytes;
      row.outcome.peak_bytes_estimate = pk.bytes_estimate;
    }
    if (resource_exhausted) ++resource_failures;
    if (row.outcome.ok) break;
  }

  row.outcome.attempts = attempts;
  row.outcome.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  row.outcome.events =
      sim::Simulator::thread_events_executed() - events_start;
  return row;
}

std::vector<Row> ParallelRunner::run(
    const std::vector<TrialDesc>& trials,
    const std::function<Row(const TrialDesc&)>& fn) const {
  std::vector<Row> rows(trials.size());
  if (trials.empty()) return rows;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex observer_mu;

  // Weighted admission: a weight-w trial occupies w of the runner's
  // `jobs` capacity units, so memory-heavy trials can't all run at
  // once (at w == jobs a trial runs alone). Weights are computed up
  // front — the weight fn may touch the registry and should run once
  // per trial, not once per admission wait. Admission only delays
  // *when* a trial starts, never what it computes, so the jobs=1 ==
  // jobs=N byte-identity is untouched.
  const int capacity = jobs_;
  std::vector<int> weights;
  if (weight_fn_) {
    weights.reserve(trials.size());
    const int cap = std::min(policy_.trial_weight_cap, capacity);
    for (const TrialDesc& t : trials) {
      weights.push_back(std::clamp(weight_fn_(t), 1, cap));
    }
  }
  std::mutex admit_mu;
  std::condition_variable admit_cv;
  int in_flight_weight = 0;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= trials.size()) return;
      const int w = weights.empty() ? 1 : weights[i];
      {
        std::unique_lock<std::mutex> lock(admit_mu);
        admit_cv.wait(lock,
                      [&] { return in_flight_weight + w <= capacity; });
        in_flight_weight += w;
      }
      rows[i] = run_quarantined(trials[i], fn);
      {
        const std::lock_guard<std::mutex> lock(admit_mu);
        in_flight_weight -= w;
      }
      admit_cv.notify_all();
      const std::size_t completed =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (on_row_ || progress_) {
        const std::lock_guard<std::mutex> lock(observer_mu);
        if (on_row_) on_row_(rows[i]);
        if (progress_) progress_(completed, trials.size());
      }
    }
  };

  const int n = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), trials.size()));
  if (n <= 1) {
    worker();
    return rows;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return rows;
}

std::vector<Row> ParallelRunner::run(
    const std::vector<TrialDesc>& trials) const {
  return run(trials, [](const TrialDesc& d) { return run_trial(d); });
}

}  // namespace slowcc::exp
