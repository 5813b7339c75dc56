#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>

#include "engine_diff.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {
namespace {

// Property test: randomized 10k-op schedule/cancel/pop/peek scripts,
// the wheel and the reference heap must agree on every observable. On failure the report
// embeds the delta-debugged minimal script, so the assertion message is
// directly actionable.
TEST(EngineDiff, RandomizedScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x5107cc5eedULL;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_engines(random_script(seed, 10000));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// Short scripts shake out horizon-edge bugs that long ones average
// away (first advance, first overflow jump, pop-through-empty).
TEST(EngineDiff, ShortScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x51075407ULL;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_engines(random_script(seed, 40));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

TEST(EngineDiff, MassiveTieBurstAgrees) {
  DiffScript script;
  for (int i = 0; i < 2000; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kSchedule, 777'000, 0});
  }
  for (std::size_t i = 0; i < 600; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kCancel, 0, i * 3});
  }
  for (int i = 0; i < 900; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// INT64_MAX timestamps stress the overflow-jump saturation path; the
// near events interleave with them across the full wheel span.
TEST(EngineDiff, FarFutureSentinelsAgree) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, 5, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax - 1, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, 1'000'000'000'000, 0});
  for (int i = 0; i < 6; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
    script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Regression: draining the slot abutting INT64_MAX saturates the
// wheel's horizon (its nominal exclusive end, INT64_MAX + 1, is
// unrepresentable — computing it was UB). Events scheduled at
// INT64_MAX afterwards re-enter the top slot and must still fire, in
// seq order, and events just below it stage straight into the due
// heap.
TEST(EngineDiff, ScheduleAtMaxAfterHorizonSaturates) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // saturates the horizon
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kMax - 1, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  for (int i = 0; i < 3; ++i) {
    script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
    script.push_back(DiffOp{DiffOp::Kind::kPeek, 0, 0});
  }
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Regression: when a level-0 slot and a level-1 slot start at the same
// timestamp, the wheel must cascade the level-1 slot first — it can
// hold events earlier than anything in the level-0 slot. Draining the
// level-0 slot first served events out of time order.
TEST(EngineDiff, EqualStartCascadeBeatsDrainAgrees) {
  constexpr std::int64_t kL1 = std::int64_t{1} << 20;  // level-1 slot span
  DiffScript script;
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 - 100, 0});
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 + 10, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // advances the horizon
  script.push_back(DiffOp{DiffOp::Kind::kSchedule, kL1 + 50, 0});
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});  // must be kL1 + 10
  script.push_back(DiffOp{DiffOp::Kind::kPop, 0, 0});
  const std::string report = diff_engines(script);
  EXPECT_TRUE(report.empty()) << report;
}

TEST(EngineDiff, RunScriptIsDeterministicPerEngine) {
  const DiffScript script = random_script(0xd5e7e2ULL, 2000);
  EXPECT_EQ(run_script<sim::WheelScheduler>(script),
            run_script<sim::WheelScheduler>(script));
  EXPECT_EQ(run_script<HeapScheduler>(script),
            run_script<HeapScheduler>(script));
}

// The run loop of sim::Simulator reduced to what a workload without
// drain chains, budgets, or hooks observes, over the reference heap:
// pop in (at, seq) order, advance the clock, fold (at, seq) into the
// same FNV-1a trace digest.
class HeapSim {
 public:
  sim::EventId schedule_in(sim::Time delay, sim::EventCallback cb) {
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  void run() {
    while (!queue_.empty()) {
      sim::PoppedEvent ev;
      auto cb = queue_.pop(&ev);
      now_ = ev.at;
      ++events_executed_;
      trace_digest_ = sim::fnv1a_u64(
          sim::fnv1a_u64(trace_digest_,
                         static_cast<std::uint64_t>(ev.at.as_nanos())),
          ev.seq);
      cb();
    }
  }

  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::uint64_t trace_digest() const { return trace_digest_; }

 private:
  HeapScheduler queue_;
  sim::Time now_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_digest_ = sim::kFnvOffsetBasis;
};

// Simulator-level differential: a self-rescheduling workload where
// every callback draws from a shared Rng, so any divergence in
// execution order immediately snowballs into different digests.
template <class Sim>
class RespawnWorkload {
 public:
  RespawnWorkload(std::uint64_t seed, int budget)
      : rng_(seed), budget_(budget) {}

  void spawn() {
    if (budget_ <= 0) return;
    --budget_;
    const auto delay = sim::Time::nanos(
        static_cast<std::int64_t>(rng_.uniform_int(std::uint64_t{1} << 34)));
    sim_.schedule_in(delay, [this] {
      if (rng_.chance(0.7)) spawn();
      if (rng_.chance(0.5)) spawn();
    });
  }

  Sim& sim() { return sim_; }

 private:
  Sim sim_;
  sim::Rng rng_;
  int budget_;
};

template <class Sim>
std::tuple<std::uint64_t, std::uint64_t, sim::Time> run_respawn() {
  RespawnWorkload<Sim> w(0xd16e57ULL, 30000);
  for (int i = 0; i < 100; ++i) w.spawn();
  w.sim().run();
  return std::tuple{w.sim().trace_digest(), w.sim().events_executed(),
                    w.sim().now()};
}

TEST(EngineDiff, SimulatorTraceDigestsMatch) {
  const auto heap = run_respawn<HeapSim>();
  const auto wheel = run_respawn<sim::Simulator>();
  EXPECT_EQ(std::get<0>(heap), std::get<0>(wheel));
  EXPECT_EQ(std::get<1>(heap), std::get<1>(wheel));
  EXPECT_EQ(std::get<2>(heap), std::get<2>(wheel));
  EXPECT_GT(std::get<1>(heap), 10000u);  // workload actually ran
}

}  // namespace
}  // namespace slowcc::test
