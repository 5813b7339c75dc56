#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "chain_oracle.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {
namespace {

using sim::ChainedEvent;
using sim::SimErrc;
using sim::SimError;
using sim::Simulator;
using sim::Time;

TEST(ChainOrder, RandomScriptsMatchLinearScanOracle) {
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    const std::size_t chains = 1 + (seed - 1) % 32;  // 1..32 armed chains
    ChainWorkload<LinearChainSim> oracle(seed, chains, 3000);
    ChainWorkload<Simulator> heap(seed, chains, 3000);
    const std::string expected = oracle.run();
    const std::string got = heap.run();
    ASSERT_EQ(expected, got) << "seed " << seed << ", " << chains
                             << " chains";
    EXPECT_GT(heap.events_executed(), 1000u);  // the script actually ran
  }
}

// Up to 188 armed chains: the chain count (two per link) of the 20-flow
// topology of bench/fig04_stabilization_time, the largest any figure
// builds; its runs arm at most 46 at once. Long
// sets make the back-walk insertion and the buried find-and-erase walk
// far, not just a slot or two.
TEST(ChainOrder, LargeChainSetsMatchLinearScanOracle) {
  std::uint64_t seed = 1000;
  for (const std::size_t chains : {48u, 64u, 96u, 128u, 160u, 188u}) {
    for (int rep = 0; rep < 2; ++rep, ++seed) {
      ChainWorkload<LinearChainSim> oracle(seed, chains, 4000);
      ChainWorkload<Simulator> sorted(seed, chains, 4000);
      ASSERT_EQ(oracle.run(), sorted.run())
          << "seed " << seed << ", " << chains << " chains";
      EXPECT_GT(sorted.events_executed(), 1000u);
    }
  }
}

// Records which chain fired in what order; each fire disarms itself
// unless the test installed a follow-up action.
struct Recorder {
  Simulator& sim;
  std::vector<int> order;
  std::vector<ChainedEvent> chains;
  std::vector<std::pair<Recorder*, int>> ctx;
  std::function<void(int)> on_fire;

  Recorder(Simulator& s, int n) : sim(s), chains(n), ctx(n) {
    for (int i = 0; i < n; ++i) {
      ctx[i] = {this, i};
      chains[i].fire = &Recorder::thunk;
      chains[i].ctx = &ctx[i];
    }
  }

  static void thunk(void* p) {
    auto* c = static_cast<std::pair<Recorder*, int>*>(p);
    Recorder& r = *c->first;
    r.order.push_back(c->second);
    r.sim.disarm_chain(&r.chains[c->second]);
    if (r.on_fire) r.on_fire(c->second);
  }

  void arm(int i, std::int64_t at_ns) {
    chains[i].at = Time::nanos(at_ns);
    chains[i].seq = sim.mint_event_seq();
    sim.arm_chain(&chains[i]);
  }
};

TEST(ChainOrder, RetimeNonRootEarlierAndLater) {
  Simulator sim;
  Recorder r(sim, 4);
  r.arm(0, 10);
  r.arm(1, 20);
  r.arm(2, 30);
  r.arm(3, 40);
  sim.retime_chain(&r.chains[2], Time::nanos(5), sim.mint_event_seq());
  sim.retime_chain(&r.chains[1], Time::nanos(50), sim.mint_event_seq());
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{2, 0, 3, 1}));
  EXPECT_EQ(sim.now(), Time::nanos(50));
}

// Retimes of entries buried in a longer set: the middle one becomes the
// earliest, a near-back one the latest, a front one lands mid-set.
TEST(ChainOrder, RetimeBuriedEntriesInLargeSet) {
  Simulator sim;
  Recorder r(sim, 12);
  for (int i = 0; i < 12; ++i) r.arm(i, 10 * (i + 1));  // 10..120
  sim.retime_chain(&r.chains[6], Time::nanos(5), sim.mint_event_seq());
  sim.retime_chain(&r.chains[1], Time::nanos(500), sim.mint_event_seq());
  sim.retime_chain(&r.chains[11], Time::nanos(35), sim.mint_event_seq());
  sim.retime_chain(&r.chains[3], Time::nanos(40), sim.mint_event_seq());
  EXPECT_EQ(sim.pending_events(), 12u);
  sim.run();
  EXPECT_EQ(r.order,
            (std::vector<int>{6, 0, 2, 11, 3, 4, 5, 7, 8, 9, 10, 1}));
  EXPECT_EQ(sim.now(), Time::nanos(500));
}

// The set grows past its previous maximum after a partial drain, then
// every chain is disarmed — back and buried alike — and the empty set
// still works for the next arm.
TEST(ChainOrder, GrowPastPreviousMaximumThenDisarmAll) {
  Simulator sim;
  Recorder r(sim, 20);
  for (int i = 0; i < 8; ++i) r.arm(i, 100 + i);
  for (const int i : {0, 5, 3, 7}) sim.disarm_chain(&r.chains[i]);
  EXPECT_EQ(sim.pending_events(), 4u);
  for (int i = 8; i < 20; ++i) r.arm(i, 300 - i);  // reverse order
  EXPECT_EQ(sim.pending_events(), 16u);
  for (const int i : {19, 1, 8, 12, 2, 4, 6, 9, 10, 11, 13, 14, 15, 16, 17,
                      18}) {
    sim.disarm_chain(&r.chains[i]);
    EXPECT_FALSE(r.chains[i].armed());
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_TRUE(r.order.empty());
  EXPECT_EQ(sim.events_executed(), 0u);
  r.arm(5, 7);
  r.arm(0, 3);
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0, 5}));
}

TEST(ChainOrder, RetimeAtEqualTimeOrdersBySeq) {
  Simulator sim;
  Recorder r(sim, 3);
  r.arm(0, 10);
  r.arm(1, 10);
  r.arm(2, 10);
  // Same instant, fresh seq: chain 0 now fires after the other two.
  sim.retime_chain(&r.chains[0], Time::nanos(10), sim.mint_event_seq());
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{1, 2, 0}));
}

TEST(ChainOrder, DisarmFromMiddleOfHeap) {
  Simulator sim;
  Recorder r(sim, 9);
  for (int i = 0; i < 9; ++i) r.arm(i, 100 - 10 * i);  // reverse order
  EXPECT_EQ(sim.pending_events(), 9u);
  sim.disarm_chain(&r.chains[4]);
  sim.disarm_chain(&r.chains[7]);
  EXPECT_FALSE(r.chains[4].armed());
  EXPECT_EQ(sim.pending_events(), 7u);
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{8, 6, 5, 3, 2, 1, 0}));
}

TEST(ChainOrder, ArmFromInsideAnotherChainsFire) {
  Simulator sim;
  Recorder r(sim, 3);
  std::vector<std::string> trace;
  r.on_fire = [&](int i) {
    trace.push_back("c" + std::to_string(i));
    if (i == 0) {
      r.arm(1, 10);  // same instant, later seq: runs right after
      r.arm(2, 15);
    }
  };
  r.arm(0, 10);
  sim.schedule_at(Time::nanos(12), [&] { trace.push_back("engine"); });
  sim.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"c0", "c1", "engine", "c2"}));
}

TEST(ChainOrder, EngineEventsInterleaveByAtThenSeq) {
  Simulator sim;
  Recorder r(sim, 2);
  std::vector<std::string> trace;
  sim.schedule_at(Time::nanos(10), [&] { trace.push_back("e1"); });
  r.arm(0, 10);  // minted after e1's seq
  sim.schedule_at(Time::nanos(10), [&] { trace.push_back("e2"); });
  sim.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"e1", "e2"}));
  EXPECT_EQ(r.order, (std::vector<int>{0}));

  // e3 is the cached engine head when chain 0 fires and cancels it;
  // the loop must notice, or e4 would run ahead of chain 1.
  trace.clear();
  r.order.clear();
  const sim::EventId e3 =
      sim.schedule_at(Time::nanos(30), [&] { trace.push_back("e3"); });
  sim.schedule_at(Time::nanos(50), [&] { trace.push_back("e4"); });
  r.on_fire = [&](int i) {
    trace.push_back("c" + std::to_string(i));
    if (i == 0) sim.cancel(e3);
  };
  r.arm(0, 20);
  r.arm(1, 40);
  sim.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"c0", "c1", "e4"}));
}

TEST(ChainOrder, DoubleArmAndPastRetimeThrow) {
  Simulator sim;
  Recorder r(sim, 2);
  r.arm(0, 10);
  try {
    sim.arm_chain(&r.chains[0]);
    FAIL() << "double arm must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
  }
  sim.schedule_at(Time::nanos(5), [] {});
  sim.run_until(Time::nanos(5));
  try {
    sim.retime_chain(&r.chains[0], Time::nanos(4), sim.mint_event_seq());
    FAIL() << "retime into the past must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
  }
  try {
    sim.retime_chain(&r.chains[1], Time::nanos(9), sim.mint_event_seq());
    FAIL() << "retime of an unarmed chain must throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.code(), SimErrc::kBadSchedule);
  }
  // The failed calls left the heap intact.
  sim.run();
  EXPECT_EQ(r.order, (std::vector<int>{0}));
  EXPECT_EQ(sim.now(), Time::nanos(10));
}

TEST(ChainOrder, DisarmUnarmedIsNoOp) {
  Simulator sim;
  Recorder r(sim, 2);
  sim.disarm_chain(&r.chains[0]);  // never armed
  r.arm(1, 7);
  sim.disarm_chain(&r.chains[0]);  // armed heap, chain not in it
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  sim.disarm_chain(&r.chains[1]);  // already disarmed by its fire
  EXPECT_EQ(r.order, (std::vector<int>{1}));
  EXPECT_EQ(sim.events_executed(), 1u);
}

}  // namespace
}  // namespace slowcc::test
