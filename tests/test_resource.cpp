// ResourceGovernor: the per-trial memory model that turns "this trial
// is eating the machine" into a deterministic SimError instead of an
// OOM-kill. Covers the watermark-before-ceiling ordering, the ceiling
// abort, counter balance at teardown (including a queue destroyed
// while still holding packets), and the thread-local peaks the trial
// harness reads after the Simulator is gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/drop_tail_queue.hpp"
#include "net/packet.hpp"
#include "sim/error.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace slowcc::sim {
namespace {

net::Packet make_packet(Simulator& sim, std::int64_t size_bytes) {
  net::Packet p;
  p.size_bytes = size_bytes;
  p.uid = sim.next_packet_uid();
  return p;
}

/// Schedule a self-replicating event chain that enqueues `pkts` packets
/// of `bytes` each per tick — a miniature memory bomb. The caller keeps
/// `tick` alive for the run; the closure holds it weakly, since a
/// closure owning the function it is stored in would never be freed.
void arm_bomb(Simulator& sim, net::Queue& queue,
              const std::shared_ptr<std::function<void()>>& tick, int pkts,
              std::int64_t bytes) {
  *tick = [&sim, &queue, weak = std::weak_ptr(tick), pkts, bytes] {
    const auto self = weak.lock();
    if (self == nullptr) return;
    for (int i = 0; i < pkts; ++i) {
      (void)queue.enqueue(make_packet(sim, bytes));
    }
    sim.schedule_in(Time::millis(1), *self);
    sim.schedule_in(Time::millis(2), *self);
  };
  sim.schedule_in(Time::millis(1), *tick);
}

TEST(ResourceGovernor, BytesEstimateFollowsTheDocumentedModel) {
  ResourceGovernor g;
  g.note_packets_admitted(3, 4500);
  EXPECT_EQ(g.live_packets(), 3u);
  EXPECT_EQ(g.queued_bytes(), 4500u);
  EXPECT_EQ(g.bytes_estimate(10),
            10 * ResourceGovernor::kEventFootprintBytes +
                3 * ResourceGovernor::kPacketFootprintBytes + 4500);
  g.note_packets_released(3, 4500);
  EXPECT_EQ(g.bytes_estimate(0), 0u);
}

TEST(ResourceGovernor, RejectsWatermarkFractionOutsideUnitInterval) {
  ResourceGovernor g;
  EXPECT_THROW(g.set_budget(1 << 20, 0.0), SimError);
  EXPECT_THROW(g.set_budget(1 << 20, 1.5), SimError);
  EXPECT_THROW(g.set_budget(1 << 20, -0.1), SimError);
  g.set_budget(1 << 20, 1.0);  // boundary is valid
  EXPECT_TRUE(g.armed());
}

TEST(ResourceGovernor, CeilingAbortThrowsResourceExhausted) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_governor(&sim.governor());
  sim.governor().set_budget(64 * 1024);

  auto tick = std::make_shared<std::function<void()>>();
  arm_bomb(sim, queue, tick, /*pkts=*/16, /*bytes=*/1500);
  try {
    sim.run_until(Time::seconds(10));
    FAIL() << "bomb ran to completion under a 64 KiB budget";
  } catch (const SimError& ex) {
    EXPECT_EQ(ex.code(), SimErrc::kResourceExhausted);
    // The detail string is part of the deterministic row contract.
    EXPECT_NE(std::string(ex.what()).find("exceeds budget"),
              std::string::npos);
  }
}

TEST(ResourceGovernor, AbortEventIsDeterministic) {
  const auto events_at_abort = [] {
    Simulator sim;
    net::DropTailQueue queue(std::size_t{1} << 20);
    queue.attach_governor(&sim.governor());
    sim.governor().set_budget(64 * 1024);
    auto tick = std::make_shared<std::function<void()>>();
    arm_bomb(sim, queue, tick, 16, 1500);
    try {
      sim.run_until(Time::seconds(10));
    } catch (const SimError&) {
      return sim.events_executed();
    }
    return std::uint64_t{0};
  };
  const std::uint64_t first = events_at_abort();
  ASSERT_GT(first, 0u);
  EXPECT_EQ(events_at_abort(), first);
}

TEST(ResourceGovernor, WatermarkFiresOnceAndBeforeTheCeiling) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_governor(&sim.governor());

  constexpr std::uint64_t kBudget = 64 * 1024;
  std::vector<ResourceUsage> watermark_hits;
  std::uint64_t events_at_watermark = 0;
  sim.governor().set_budget(kBudget, 0.5,
                            [&](const ResourceUsage& usage) {
                              watermark_hits.push_back(usage);
                              events_at_watermark = sim.events_executed();
                            });

  auto tick = std::make_shared<std::function<void()>>();
  arm_bomb(sim, queue, tick, 16, 1500);
  std::uint64_t events_at_abort = 0;
  try {
    sim.run_until(Time::seconds(10));
  } catch (const SimError& ex) {
    ASSERT_EQ(ex.code(), SimErrc::kResourceExhausted);
    events_at_abort = sim.events_executed();
  }
  ASSERT_EQ(watermark_hits.size(), 1u) << "watermark must fire exactly once";
  EXPECT_GE(watermark_hits[0].bytes_estimate, kBudget / 2);
  EXPECT_LT(watermark_hits[0].bytes_estimate, kBudget);
  EXPECT_LT(events_at_watermark, events_at_abort)
      << "soft watermark must precede the hard ceiling";
}

TEST(ResourceGovernor, WatermarkSheddingCanAvertTheAbort) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_governor(&sim.governor());

  // The callback drains the queue and tells the producer to back off —
  // the governor re-reads the counters after it runs, so shedding below
  // the ceiling lets the trial finish. (The watermark fires once per
  // arming; a producer that keeps growing past it still hits the
  // ceiling, which CeilingAbortThrowsResourceExhausted covers.)
  bool shed = false;
  sim.governor().set_budget(64 * 1024, 0.5, [&](const ResourceUsage&) {
    shed = true;
    while (queue.dequeue().has_value()) {
    }
  });

  int ticks = 0;
  std::function<void()> tick = [&] {
    if (!shed) {
      for (int i = 0; i < 16; ++i) {
        (void)queue.enqueue(make_packet(sim, 1500));
      }
    }
    if (++ticks < 64) sim.schedule_in(Time::millis(1), tick);
  };
  sim.schedule_in(Time::millis(1), tick);
  EXPECT_NO_THROW(sim.run());
  EXPECT_TRUE(shed);
}

TEST(ResourceGovernor, CountersBalanceToZeroAfterACleanTrial) {
  Simulator sim;
  {
    net::DropTailQueue queue(1024);
    queue.attach_governor(&sim.governor());
    for (int i = 0; i < 40; ++i) {
      (void)queue.enqueue(make_packet(sim, 1000));
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(queue.dequeue().has_value());
    }
    EXPECT_EQ(sim.governor().live_packets(), 0u);
    EXPECT_EQ(sim.governor().queued_bytes(), 0u);
  }
  // Destroying the (empty) queue releases nothing further.
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, QueueDestroyedHoldingPacketsReleasesItsResidue) {
  Simulator sim;
  {
    net::DropTailQueue queue(1024);
    queue.attach_governor(&sim.governor());
    for (int i = 0; i < 17; ++i) {
      (void)queue.enqueue(make_packet(sim, 1500));
    }
    EXPECT_EQ(sim.governor().live_packets(), 17u);
    EXPECT_EQ(sim.governor().queued_bytes(), 17u * 1500u);
  }  // torn down full, as after a kResourceExhausted abort
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, AttachChargesExistingContentsAndDetachReleases) {
  Simulator sim;
  net::DropTailQueue queue(1024);
  for (int i = 0; i < 5; ++i) {
    (void)queue.enqueue(make_packet(sim, 200));
  }
  queue.attach_governor(&sim.governor());
  EXPECT_EQ(sim.governor().live_packets(), 5u);
  EXPECT_EQ(sim.governor().queued_bytes(), 1000u);
  queue.attach_governor(nullptr);
  EXPECT_EQ(sim.governor().live_packets(), 0u);
  EXPECT_EQ(sim.governor().queued_bytes(), 0u);
}

TEST(ResourceGovernor, ThreadPeaksSurviveTheSimulatorAndReset) {
  ResourceGovernor::reset_thread_peaks();
  EXPECT_EQ(ResourceGovernor::thread_peaks().bytes_estimate, 0u);
  {
    Simulator sim;
    net::DropTailQueue queue(std::size_t{1} << 20);
    queue.attach_governor(&sim.governor());
    sim.governor().set_budget(64 * 1024);
    auto tick = std::make_shared<std::function<void()>>();
    arm_bomb(sim, queue, tick, 16, 1500);
    EXPECT_THROW(sim.run_until(Time::seconds(10)), SimError);
  }  // Simulator and queue both gone
  const ResourceUsage& peaks = ResourceGovernor::thread_peaks();
  EXPECT_GE(peaks.bytes_estimate, 64u * 1024u);
  EXPECT_GT(peaks.live_packets, 0u);
  EXPECT_GT(peaks.queued_bytes, 0u);
  ResourceGovernor::reset_thread_peaks();
  EXPECT_EQ(ResourceGovernor::thread_peaks().bytes_estimate, 0u);
  EXPECT_EQ(ResourceGovernor::thread_peaks().live_packets, 0u);
}

TEST(ResourceGovernor, DisarmedGovernorNeverAborts) {
  Simulator sim;
  net::DropTailQueue queue(std::size_t{1} << 20);
  queue.attach_governor(&sim.governor());
  int ticks = 0;
  std::function<void()> tick = [&] {
    for (int i = 0; i < 16; ++i) {
      (void)queue.enqueue(make_packet(sim, 1500));
    }
    if (++ticks < 128) sim.schedule_in(Time::millis(1), tick);
  };
  sim.schedule_in(Time::millis(1), tick);
  EXPECT_NO_THROW(sim.run());
  EXPECT_FALSE(sim.governor().armed());
  EXPECT_EQ(queue.length_packets(), 128u * 16u);
}

}  // namespace
}  // namespace slowcc::sim
