#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "packet_path_diff.hpp"
#include "sim/rng.hpp"

namespace slowcc::test {
namespace {

// ====================================================================
// Property tests: on randomized send/run/flap/retime/filter/delay/wire
// scripts, net::Link (batched drain chain, propagation FIFO) and the
// reference test::ScalarLink (one engine event per departure and per
// delivery) must agree on every observable — time, event count, trace
// digest, link counters, queue occupancy, and each delivered packet.
// On failure the report embeds the ddmin-shrunken minimal script, so
// the assertion message is directly actionable.

TEST(PacketPathDiff, RandomizedScriptsAgreeOnDropTail) {
  constexpr std::uint64_t kBaseSeed = 0x9ac4e7aa7bULL;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_paths(random_path_script(seed, 400));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// RED consumes RNG draws during admission; the links only agree if
// net::Link's queue makes exactly the same admit() calls in the same
// order (early drops land mid-batch under saturation).
TEST(PacketPathDiff, RandomizedScriptsAgreeOnRed) {
  constexpr std::uint64_t kBaseSeed = 0x9ac45edULL;
  PathRigConfig cfg;
  cfg.red = true;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report =
        diff_paths(random_path_script(seed, 400), cfg);
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// Short scripts shake out arming-edge bugs that long ones average away
// (first transmission, chain armed exactly once, drain of a 1-deep
// queue).
TEST(PacketPathDiff, ShortScriptsAgree) {
  constexpr std::uint64_t kBaseSeed = 0x9ac45407ULL;
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    const std::uint64_t seed = sim::derive_seed(kBaseSeed, trial);
    const std::string report = diff_paths(random_path_script(seed, 40));
    EXPECT_TRUE(report.empty()) << "seed " << seed << ":\n" << report;
  }
}

// ====================================================================
// Directed regressions: the batch-boundary cases.

// A burst that saturates the link, then set_down lands mid-drain: the
// chain must disarm without firing the queued departures, the
// in-flight packet is dropped as kLinkDown, and the queue flushes —
// identically to the reference's cancel.
TEST(PacketPathDiff, SetDownInterruptsDrain) {
  PathScript script;
  for (int i = 0; i < 6; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  // 1.5 serializations in: packet 0 delivered, packet 1 on the wire.
  script.push_back({PathOp::Kind::kRun, 1'500'000});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kRun, 5'000'000});
  script.push_back({PathOp::Kind::kUp, 0});
  for (int i = 0; i < 3; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Flap the link while the queue still holds a backlog and immediately
// resume sending: the first post-repair send must re-arm the chain
// from scratch (the reference schedules a fresh tx event).
TEST(PacketPathDiff, FlapThenImmediateResend) {
  PathScript script;
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 800});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kUp, 0});
  script.push_back({PathOp::Kind::kSend, 800});
  script.push_back({PathOp::Kind::kRun, 10'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// RED early drop mid-batch: an aggressive RED config dropping under a
// saturating burst must consume identical RNG draws on both links —
// the drop decisions (and therefore which seqs are delivered) match.
TEST(PacketPathDiff, RedDropsMidBatch) {
  PathRigConfig cfg;
  cfg.red = true;
  PathScript script;
  for (int i = 0; i < 12; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 4'000'000});
  for (int i = 0; i < 12; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script, cfg);
  EXPECT_TRUE(report.empty()) << report;
}

// The last packet of a batch is canceled: set_down exactly when only
// the final queued packet remains; its pending departure must never
// fire and its handle must be released (the harness's
// pool_live_after_drain line catches a leak).
TEST(PacketPathDiff, LastPacketOfBatchCanceled) {
  PathScript script;
  script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kSend, 1000});
  // Both serializations done for packet 0; packet 1 is the whole batch
  // tail when the link dies.
  script.push_back({PathOp::Kind::kRun, 1'200'000});
  script.push_back({PathOp::Kind::kDown, 0});
  script.push_back({PathOp::Kind::kRun, 3'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// set_bandwidth mid-transmission re-times the in-flight packet:
// net::Link re-mints the chain seq exactly where the reference cancels
// + reschedules, so digests stay identical.
TEST(PacketPathDiff, RetimeMidTransmission) {
  PathScript script;
  for (int i = 0; i < 5; ++i) script.push_back({PathOp::Kind::kSend, 1500});
  script.push_back({PathOp::Kind::kRun, 700'000});  // mid-serialization
  script.push_back({PathOp::Kind::kBandwidth, 2'000'000});
  script.push_back({PathOp::Kind::kRun, 2'000'000});
  script.push_back({PathOp::Kind::kBandwidth, 16'000'000});
  script.push_back({PathOp::Kind::kRun, 20'000'000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// Runs of three 40-byte and three 1000-byte packets, with the bandwidth
// flipped between two rates every 0.7 ms, start packets of the same
// size across a rate change and packets of a new size at an unchanged
// rate: a serialization time in net::Link that lagged either the size
// or the rate shows as a digest or delivery-time mismatch against the
// reference.
TEST(PacketPathDiff, AlternatingSizesAcrossBandwidthFlips) {
  PathRigConfig cfg;
  cfg.queue_limit = 64;
  PathScript script;
  for (int i = 0; i < 36; ++i) {
    script.push_back({PathOp::Kind::kSend, (i / 3) % 2 == 0 ? 40 : 1000});
  }
  for (int flip = 0; flip < 16; ++flip) {
    script.push_back({PathOp::Kind::kRun, 700'000});
    script.push_back(
        {PathOp::Kind::kBandwidth, flip % 2 == 0 ? 2'000'000 : 8'000'000});
  }
  script.push_back({PathOp::Kind::kRun, 100'000'000});
  const std::string report = diff_paths(script, cfg);
  EXPECT_TRUE(report.empty()) << report;
}

// Forced-drop filter toggled under saturation: filtered arrivals must
// not perturb the drain cadence of packets already queued.
TEST(PacketPathDiff, ForcedDropUnderSaturation) {
  PathScript script;
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kFilter, 0});
  for (int i = 0; i < 6; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kFilter, 0});
  script.push_back({PathOp::Kind::kSend, 1000});
  const std::string report = diff_paths(script);
  EXPECT_TRUE(report.empty()) << report;
}

// A long propagation delay fills the wire FIFO, then shrinks while it
// is full: the next departures land before the FIFO's tail and must
// take the engine fallback, minting their seqs where the reference
// schedules its delivery events. Growing the delay again afterwards
// puts deliveries back behind the engine-carried ones.
TEST(PacketPathDiff, DelayShrinkMidFlight) {
  PathRigConfig cfg;
  cfg.queue_limit = 16;
  PathScript script;
  script.push_back({PathOp::Kind::kDelay, 6'000'000});
  for (int i = 0; i < 10; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  // Three departures propagating (due at 7, 8, 9 ms), the fourth on
  // the transmitter.
  script.push_back({PathOp::Kind::kRun, 3'500'000});
  script.push_back({PathOp::Kind::kDelay, 200'000});  // lands at 4.2 ms
  script.push_back({PathOp::Kind::kRun, 2'000'000});
  script.push_back({PathOp::Kind::kDelay, 0});
  script.push_back({PathOp::Kind::kRun, 1'000'000});
  script.push_back({PathOp::Kind::kDelay, 4'000'000});
  for (int i = 0; i < 4; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 2'500'000});
  script.push_back({PathOp::Kind::kDelay, 500'000});
  script.push_back({PathOp::Kind::kRun, 50'000'000});
  const std::string report = diff_paths(script, cfg);
  EXPECT_TRUE(report.empty()) << report;
}

// The wire model duplicates every 5th packet (the copy 250 us behind),
// holds every 4th 1.5 ms and loses every 7th. The duplicate's delivery
// seq is minted before the original's, as the reference schedules
// them; with the copy due later, minting them the other way round
// changes the executed (at, seq) stream and so the digest.
TEST(PacketPathDiff, DuplicateOrderMatchesOracle) {
  PathRigConfig cfg;
  cfg.queue_limit = 32;
  PathScript script;
  script.push_back({PathOp::Kind::kWire, 0});
  for (int i = 0; i < 24; ++i) script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 10'000'000});
  script.push_back({PathOp::Kind::kDelay, 3'000'000});
  script.push_back({PathOp::Kind::kRun, 40'000'000});
  const std::string report = diff_paths(script, cfg);
  EXPECT_TRUE(report.empty()) << report;
  // The script must exercise every verdict, or agreement proves little.
  const std::string log = run_path_script<net::Link>(script, cfg);
  EXPECT_EQ(log.find(" wire=0 "), std::string::npos) << log;
  EXPECT_EQ(log.find(" dup=0 "), std::string::npos) << log;
  EXPECT_EQ(log.find(" reord=0 "), std::string::npos) << log;
}

// ====================================================================
// Harness self-checks.

// The shrinker only ever returns scripts that still disagree, and the
// sanity path (agreeing script) reports empty without shrinking.
TEST(PacketPathDiff, AgreementReportsEmpty) {
  PathScript script;
  script.push_back({PathOp::Kind::kSend, 1000});
  script.push_back({PathOp::Kind::kRun, 5'000'000});
  EXPECT_TRUE(diff_paths(script).empty());
}

// Determinism of the harness itself: the same script renders the same
// log twice on the same link type (no hidden global state between
// runs).
TEST(PacketPathDiff, HarnessIsDeterministicPerPath) {
  const PathScript script = random_path_script(0x9acd37e7ULL, 200);
  EXPECT_EQ(run_path_script<ScalarLink>(script),
            run_path_script<ScalarLink>(script));
  EXPECT_EQ(run_path_script<net::Link>(script),
            run_path_script<net::Link>(script));
}

}  // namespace
}  // namespace slowcc::test
