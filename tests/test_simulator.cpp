#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace slowcc::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time::millis(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::millis(7));
  EXPECT_EQ(sim.now(), Time::millis(7));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time::millis(10), [&] {
    sim.schedule_in(Time::millis(5), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::millis(15));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(10), [&] { ++fired; });
  sim.schedule_at(Time::millis(30), [&] { ++fired; });
  sim.run_until(Time::millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
  sim.run_until(Time::millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtDeadlineRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(Time::millis(20), [&] { ran = true; });
  sim.run_until(Time::millis(20));
  EXPECT_TRUE(ran);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(Time::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Time::millis(5), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(Time::millis(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 25u);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule_at(Time::millis(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelThenRunLeavesClockAtDeadline) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule_at(Time::millis(10), [&] { ran = true; });
  sim.cancel(id);
  sim.run_until(Time::millis(20));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Time::millis(20));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RescheduleFromInsideCallbackRunsInSamePass) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time::millis(10), [&] {
    order.push_back(1);
    // Same-time event scheduled from inside a callback must still run
    // in this run_until pass (FIFO among equal times).
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
    sim.schedule_in(Time::millis(5), [&] { order.push_back(3); });
  });
  sim.run_until(Time::millis(15));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::millis(15));
}

TEST(Simulator, EventScheduledAtDeadlineFromCallbackAtDeadlineRuns) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(20), [&] {
    ++fired;
    sim.schedule_at(Time::millis(20), [&] { ++fired; });
  });
  sim.run_until(Time::millis(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelInsideCallbackOfLaterEvent) {
  Simulator sim;
  bool ran = false;
  EventId later{};
  sim.schedule_at(Time::millis(1), [&] { sim.cancel(later); });
  later = sim.schedule_at(Time::millis(2), [&] { ran = true; });
  sim.run_until(Time::millis(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Time::millis(10));
}

TEST(Simulator, RunUntilSameDeadlineTwiceIsIdempotent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time::millis(10), [&] { ++fired; });
  sim.run_until(Time::millis(10));
  sim.run_until(Time::millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::millis(10));
}

TEST(Simulator, SchedulingInThePastThrowsStructuredError) {
  Simulator sim;
  sim.schedule_at(Time::millis(10), [] {});
  sim.run();
  try {
    sim.schedule_at(Time::millis(5), [] {});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
    EXPECT_EQ(e.component(), "Simulator");
  }
}

TEST(Simulator, EventHookFiresEveryNEvents) {
  Simulator sim;
  int hooks = 0;
  sim.set_event_hook(10, [&] { ++hooks; });
  for (int i = 0; i < 35; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(hooks, 3);
  sim.clear_event_hook();
  sim.set_event_hook(1, [&] { ++hooks; });  // slot is free again
}

TEST(Simulator, EventHookSlotIsExclusive) {
  Simulator sim;
  sim.set_event_hook(10, [] {});
  EXPECT_THROW(sim.set_event_hook(10, [] {}), SimError);
  EXPECT_THROW(sim.clear_event_hook(); sim.set_event_hook(0, [] {}),
               SimError);
}

TEST(Timer, FiresOnceAtScheduledDelay) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  EXPECT_TRUE(t.pending());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.pending());
}

TEST(Timer, RescheduleReplacesPrevious) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  t.schedule_in(Time::millis(20));  // replaces the first
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), Time::millis(20));
}

TEST(Timer, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.schedule_in(Time::millis(10));
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(Timer, CanRescheduleItselfFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] {
    if (++fires < 5) t.schedule_in(Time::millis(10));
  });
  t.schedule_in(Time::millis(10));
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.now(), Time::millis(50));
}

TEST(Timer, ExposesDeadlineWhilePending) {
  Simulator sim;
  Timer t(sim, [] {});
  sim.schedule_at(Time::millis(4), [] {});
  sim.run();
  t.schedule_in(Time::millis(10));
  EXPECT_EQ(t.deadline(), Time::millis(14));
  t.schedule_at(Time::millis(30));
  EXPECT_EQ(t.deadline(), Time::millis(30));
}

TEST(Timer, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.schedule_in(Time::millis(10));
  }  // destroyed while pending
  sim.run();  // must not crash or fire
  EXPECT_EQ(fires, 0);
}

TEST(Simulator, EventBudgetThrowsDeadlineExceeded) {
  Simulator sim;
  std::function<void()> chain = [&] {
    sim.schedule_in(Time::millis(1), chain);
  };
  sim.schedule_at(Time::millis(1), chain);
  sim.set_event_budget(50);
  try {
    sim.run_until(Time::seconds(10));
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kDeadlineExceeded);
    EXPECT_NE(e.detail().find("event budget"), std::string::npos);
  }
  EXPECT_EQ(sim.events_executed(), 50u);
}

TEST(Simulator, EventBudgetCountsFromArming) {
  Simulator sim;
  for (int i = 0; i < 40; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run_until(Time::millis(100));  // 40 events, no budget yet
  sim.set_event_budget(50);          // 50 more from here, not from zero
  for (int i = 0; i < 45; ++i) {
    sim.schedule_at(Time::millis(200 + i), [] {});
  }
  sim.run_until(Time::seconds(1));  // 45 < 50: fits
  EXPECT_EQ(sim.events_executed(), 85u);
  EXPECT_EQ(sim.event_budget(), 50u);
}

TEST(Simulator, ZeroEventBudgetMeansUnlimited) {
  Simulator sim;
  sim.set_event_budget(10);
  sim.set_event_budget(0);  // disarm
  for (int i = 0; i < 100; ++i) sim.schedule_at(Time::millis(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, ThreadEventCounterAccumulatesAcrossSimulators) {
  const std::uint64_t before = Simulator::thread_events_executed();
  {
    Simulator sim;
    for (int i = 0; i < 7; ++i) sim.schedule_at(Time::millis(i), [] {});
    sim.run();
  }
  {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_at(Time::millis(i), [] {});
    sim.run();
  }
  EXPECT_EQ(Simulator::thread_events_executed() - before, 12u);
}

TEST(Simulator, ConstructObserverSeesEveryNewSimulator) {
  int seen = 0;
  Simulator::set_thread_construct_observer(
      [&](Simulator& s) { ++seen; s.set_event_budget(123); });
  Simulator a;
  Simulator b;
  Simulator::set_thread_construct_observer(nullptr);
  Simulator c;  // after clearing: unobserved
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(a.event_budget(), 123u);
  EXPECT_EQ(b.event_budget(), 123u);
  EXPECT_EQ(c.event_budget(), 0u);
}

TEST(Simulator, SecondConstructObserverIsRejected) {
  Simulator::set_thread_construct_observer([](Simulator&) {});
  EXPECT_THROW(Simulator::set_thread_construct_observer([](Simulator&) {}),
               SimError);
  Simulator::set_thread_construct_observer(nullptr);
}

// The run loop's zero-run fold must equal the reference byte loop for
// every value: at each byte-width boundary (where the tier changes) and
// for random hashes and values of every width.
TEST(ZeroRunFold, MatchesReferenceAtByteWidthBoundaries) {
  std::vector<std::uint64_t> values = {0, UINT64_MAX,
                                       std::uint64_t{1} << 63};
  for (int bits = 8; bits < 64; bits += 8) {
    values.push_back((std::uint64_t{1} << bits) - 1);
    values.push_back(std::uint64_t{1} << bits);
    values.push_back((std::uint64_t{1} << bits) + 1);
  }
  for (const std::uint64_t h : {kFnvOffsetBasis, std::uint64_t{0},
                                UINT64_MAX, std::uint64_t{0x0123456789abcdef}}) {
    for (const std::uint64_t v : values) {
      EXPECT_EQ(fnv1a_u64_zero_run(h, v), fnv1a_u64(h, v))
          << "h=" << h << " v=" << v;
    }
  }
  static_assert(fnv1a_u64_zero_run(kFnvOffsetBasis, 0xffffff) ==
                fnv1a_u64(kFnvOffsetBasis, 0xffffff));
  static_assert(fnv1a_u64_zero_run(kFnvOffsetBasis, 0xffffffffffULL) ==
                fnv1a_u64(kFnvOffsetBasis, 0xffffffffffULL));
}

TEST(ZeroRunFold, MatchesReferenceOnRandomPairs) {
  Rng rng(20010827);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t h = rng.next_u64();
    // Shift by 0..63 so every byte width is drawn about equally often.
    const std::uint64_t v = rng.next_u64() >> rng.uniform_int(64);
    ASSERT_EQ(fnv1a_u64_zero_run(h, v), fnv1a_u64(h, v))
        << "h=" << h << " v=" << v;
  }
}

// No golden reaches the fold's full-loop tier (a 190 s figure stays
// below 2^40 ns), so run a Simulator there directly: fire times on both
// sides of 2^24 and 2^40 ns and seqs past 2^24, through both the engine
// and a drain chain, checked against the reference fold.
struct HopChain {
  Simulator* sim = nullptr;
  ChainedEvent chain;
  std::vector<std::int64_t> times;
  std::size_t next = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>>* executed = nullptr;

  // One ns after each engine event: the two sources interleave.
  void arm_next() {
    chain.at = Time::nanos(times[next++] + 1);
    chain.seq = sim->mint_event_seq();
    sim->arm_chain(&chain);
  }

  static void fire(void* ctx) {
    auto* self = static_cast<HopChain*>(ctx);
    self->executed->emplace_back(self->sim->now().as_nanos(),
                                 self->chain.seq);
    self->sim->disarm_chain(&self->chain);
    if (self->next < self->times.size()) self->arm_next();
  }
};

TEST(Simulator, TraceDigestMatchesReferenceFoldPastFastTiers) {
  Simulator sim;
  while (sim.mint_event_seq() < (std::uint64_t{1} << 24) + 3) {
  }
  const std::vector<std::int64_t> times = {
      (std::int64_t{1} << 24) - 1, std::int64_t{1} << 24,
      (std::int64_t{1} << 40) - 1, std::int64_t{1} << 40,
      (std::int64_t{1} << 40) + 255, std::int64_t{1} << 62};
  std::vector<std::pair<std::int64_t, std::uint64_t>> executed;
  std::vector<std::uint64_t> engine_seq(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    sim.schedule_at(Time::nanos(times[i]), [&, i] {
      executed.emplace_back(sim.now().as_nanos(), engine_seq[i]);
    });
    // schedule_at drew the event's seq from the counter that
    // mint_event_seq() advances: it is the value just before this one.
    engine_seq[i] = sim.mint_event_seq() - 1;
  }
  HopChain hop;
  hop.sim = &sim;
  hop.chain.fire = &HopChain::fire;
  hop.chain.ctx = &hop;
  hop.times = times;
  hop.executed = &executed;
  hop.arm_next();
  sim.run();

  ASSERT_EQ(executed.size(), 2 * times.size());
  std::uint64_t expected = kFnvOffsetBasis;
  for (const auto& [at, seq] : executed) {
    EXPECT_GE(seq, std::uint64_t{1} << 24);
    expected = fnv1a_u64(fnv1a_u64(expected, static_cast<std::uint64_t>(at)),
                         seq);
  }
  EXPECT_EQ(executed.back().first, (std::int64_t{1} << 62) + 1);
  EXPECT_EQ(sim.trace_digest(), expected);
}

}  // namespace
}  // namespace slowcc::sim
