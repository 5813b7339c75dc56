#pragma once

// Differential test harness for the packet path (DESIGN.md §14):
// net::Link (pooled handles, batched drain chain, propagation FIFO)
// against the reference test::ScalarLink (by-value packets, one engine
// event per departure and per delivery).
//
// A PathScript is a flat list of send/run/flap/retime/delay/wire
// operations driven against a one-link rig. run_path_script<LinkT>()
// executes a script through one link type and renders everything
// observable — simulated time, executed-event count, the trace digest,
// every LinkStats counter, queue occupancy, and each delivered packet —
// into a canonical log string. diff_paths() runs the same script
// through both links and, when the logs differ, delta-debugs the
// script down to a minimal failing core (the engine_diff.hpp ddmin
// pattern) and returns a report embedding it. Property tests feed this
// with randomized scripts seeded via sim::Rng; directed regressions
// encode the batching edge cases (set_down mid-drain, RED drop
// mid-batch, retiming, delay shrinks, wire faults).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/red_queue.hpp"
#include "scalar_link.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {

struct PathOp {
  enum class Kind : std::uint8_t {
    kSend,       // inject one packet (arg = size_bytes)
    kRun,        // advance the simulation (arg = nanoseconds)
    kDown,       // link failure
    kUp,         // link repair
    kBandwidth,  // retime the transmitter (arg = new bps)
    kFilter,     // toggle a deterministic forced-drop filter
    kDelay,      // set the propagation delay (arg = nanoseconds)
    kWire,       // toggle the deterministic SeqWireModel
  };
  Kind kind = Kind::kSend;
  std::int64_t arg = 0;
};

using PathScript = std::vector<PathOp>;

/// Scripted rig parameters; `red` switches the queue discipline so the
/// differential also covers RED's RNG-consuming admission (mid-batch
/// early drops) against the scalar oracle.
struct PathRigConfig {
  bool red = false;
  std::size_t queue_limit = 8;
  double bandwidth_bps = 8e6;  // 1000 B packet = 1 ms serialization
  sim::Time delay = sim::Time::micros(500);
};

namespace detail {

struct CountingSink final : net::PacketHandler {
  sim::Simulator* sim = nullptr;
  std::ostringstream* log = nullptr;
  void handle_packet(const net::Packet& p) override {
    *log << "rx t=" << sim->now().as_nanos() << " seq=" << p.seq
         << " size=" << p.size_bytes << "\n";
  }
};

/// Wire impairment decided by packet seq alone, so both links see the
/// same verdicts: every 7th packet is lost, every 5th duplicated (the
/// copy 250 us behind), every 4th held 1.5 ms — longer than a 1000 B
/// serialization, so later packets overtake it and the FIFO falls back
/// to the engine.
struct SeqWireModel final : net::WireModel {
  net::WireVerdict on_wire(const net::Packet& p) override {
    net::WireVerdict v;
    if (p.seq % 7 == 3) {
      v.drop = true;
      return v;
    }
    if (p.seq % 5 == 1) {
      v.duplicate = true;
      v.duplicate_delay = sim::Time::micros(250);
    }
    if (p.seq % 4 == 2) v.extra_delay = sim::Time::micros(1500);
    return v;
  }
};

inline std::unique_ptr<net::Queue> make_queue(sim::Simulator& sim,
                                              const PathRigConfig& cfg) {
  if (!cfg.red) return std::make_unique<net::DropTailQueue>(cfg.queue_limit);
  net::RedConfig red;
  red.limit_packets = cfg.queue_limit;
  red.min_thresh = 1.0;
  red.max_thresh = 4.0;
  red.max_p = 0.5;     // aggressive: early drops happen mid-batch often
  red.weight = 0.25;   // fast EWMA so short scripts reach the thresholds
  return std::make_unique<net::RedQueue>(sim, red);
}

}  // namespace detail

/// Execute `script` on a one-link rig built with `LinkT` (net::Link or
/// test::ScalarLink) and render every observable into a log. The two
/// links agree iff their logs are equal.
template <class LinkT>
std::string run_path_script(const PathScript& script,
                            const PathRigConfig& cfg = {}) {
  std::ostringstream log;
  {
    sim::Simulator sim;
    net::Node a{0, "a"};
    net::Node b{1, "b"};
    detail::CountingSink sink;
    sink.sim = &sim;
    sink.log = &log;
    b.attach(1, sink);
    LinkT link(sim, a, b, cfg.bandwidth_bps, cfg.delay,
               detail::make_queue(sim, cfg));
    detail::SeqWireModel wire;

    bool filtered = false;
    bool impaired = false;
    std::int64_t next_seq = 0;
    for (const PathOp& op : script) {
      switch (op.kind) {
        case PathOp::Kind::kSend: {
          net::Packet p;
          p.src_node = 0;
          p.dst_node = 1;
          p.dst_port = 1;
          p.seq = next_seq++;
          p.size_bytes = op.arg;
          link.send(std::move(p));
          break;
        }
        case PathOp::Kind::kRun:
          sim.run_until(sim.now() + sim::Time::nanos(op.arg));
          break;
        case PathOp::Kind::kDown:
          link.set_down();
          break;
        case PathOp::Kind::kUp:
          link.set_up();
          break;
        case PathOp::Kind::kBandwidth:
          link.set_bandwidth(static_cast<double>(op.arg));
          break;
        case PathOp::Kind::kFilter:
          filtered = !filtered;
          if (filtered) {
            link.set_forced_drop_filter(
                [](const net::Packet& p) { return p.seq % 3 == 0; });
          } else {
            link.set_forced_drop_filter(nullptr);
          }
          break;
        case PathOp::Kind::kDelay:
          link.set_propagation_delay(sim::Time::nanos(op.arg));
          break;
        case PathOp::Kind::kWire:
          impaired = !impaired;
          link.set_wire_model(impaired ? &wire : nullptr);
          break;
      }
      const net::LinkStats& s = link.stats();
      log << "t=" << sim.now().as_nanos() << " ev=" << sim.events_executed()
          << " dig=" << sim.trace_digest() << " arr=" << s.arrivals
          << " dep=" << s.departures << " drop=" << s.drops_total()
          << " q=" << link.queue().length_packets()
          << " qb=" << link.queue().length_bytes() << "\n";
    }
    sim.run();  // drain: the full event stream is compared either way
    const net::LinkStats& s = link.stats();
    log << "final t=" << sim.now().as_nanos()
        << " ev=" << sim.events_executed() << " dig=" << sim.trace_digest()
        << " arr=" << s.arrivals << " dep=" << s.departures
        << " ovf=" << s.drops_overflow << " early=" << s.drops_early
        << " forced=" << s.drops_forced << " down=" << s.drops_link_down
        << " wire=" << s.drops_impairment << " dup=" << s.duplicates
        << " reord=" << s.reordered << " bytes=" << s.bytes_delivered
        << " q=" << link.queue().length_packets() << "\n";
    log << "pool_live_after_drain="
        << (net::PacketPool::of(sim).live() - link.queue().length_packets())
        << "\n";
  }
  return log.str();
}

inline std::string render_path_script(const PathScript& script) {
  std::ostringstream out;
  for (const PathOp& op : script) {
    switch (op.kind) {
      case PathOp::Kind::kSend:
        out << "  send(size=" << op.arg << ")\n";
        break;
      case PathOp::Kind::kRun:
        out << "  run(ns=" << op.arg << ")\n";
        break;
      case PathOp::Kind::kDown:
        out << "  down()\n";
        break;
      case PathOp::Kind::kUp:
        out << "  up()\n";
        break;
      case PathOp::Kind::kBandwidth:
        out << "  bandwidth(bps=" << op.arg << ")\n";
        break;
      case PathOp::Kind::kFilter:
        out << "  filter()\n";
        break;
      case PathOp::Kind::kDelay:
        out << "  delay(ns=" << op.arg << ")\n";
        break;
      case PathOp::Kind::kWire:
        out << "  wire()\n";
        break;
    }
  }
  return out.str();
}

inline bool paths_disagree(const PathScript& script,
                           const PathRigConfig& cfg = {}) {
  return run_path_script<ScalarLink>(script, cfg) !=
         run_path_script<net::Link>(script, cfg);
}

/// ddmin-style shrink (see engine_diff.hpp): delete chunks while the
/// ScalarLink/net::Link disagreement persists.
inline PathScript shrink_path_script(PathScript failing,
                                     const PathRigConfig& cfg = {}) {
  std::size_t chunk = std::max<std::size_t>(1, failing.size() / 2);
  for (;;) {
    bool removed = false;
    std::size_t start = 0;
    while (start < failing.size()) {
      PathScript candidate(failing);
      candidate.erase(
          candidate.begin() + static_cast<std::ptrdiff_t>(start),
          candidate.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(failing.size(), start + chunk)));
      if (!candidate.empty() && paths_disagree(candidate, cfg)) {
        failing = std::move(candidate);
        removed = true;  // retry the same offset at the new layout
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed) return failing;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
}

/// Empty string when both links agree on `script`; otherwise a failure
/// report containing the shrunken minimal script and both logs.
inline std::string diff_paths(const PathScript& script,
                              const PathRigConfig& cfg = {}) {
  if (!paths_disagree(script, cfg)) return {};
  const PathScript minimal = shrink_path_script(script, cfg);
  std::ostringstream out;
  out << "test::ScalarLink and net::Link disagree; minimal script ("
      << minimal.size() << " of " << script.size() << " ops):\n"
      << render_path_script(minimal) << "--- ScalarLink log ---\n"
      << run_path_script<ScalarLink>(minimal, cfg)
      << "--- net::Link log ---\n"
      << run_path_script<net::Link>(minimal, cfg);
  return out.str();
}

/// Randomized script: sends dominate (bursts saturate the link so the
/// drain chain actually batches), runs advance time by slices shorter
/// than one serialization (so flaps and retimes land mid-transmission),
/// and flaps/retimes/filters/delay changes/wire toggles are sprinkled
/// in. Delays up to 8 ms keep several deliveries in the propagation
/// FIFO, so a drawn shrink often lands before its tail.
inline PathScript random_path_script(std::uint64_t seed,
                                     std::size_t num_ops) {
  sim::Rng rng(seed);
  PathScript script;
  script.reserve(num_ops);
  bool down = false;
  for (std::size_t i = 0; i < num_ops; ++i) {
    const double roll = rng.uniform();
    PathOp op;
    if (roll < 0.50) {
      op.kind = PathOp::Kind::kSend;
      // 100..1500 B: varied serialization times, including ties.
      op.arg = 100 + static_cast<std::int64_t>(rng.uniform_int(15)) * 100;
    } else if (roll < 0.80) {
      op.kind = PathOp::Kind::kRun;
      // 0..2 ms in 50 us steps: lands inside and across transmissions.
      op.arg = static_cast<std::int64_t>(rng.uniform_int(41)) * 50'000;
    } else if (roll < 0.86) {
      op.kind = down ? PathOp::Kind::kUp : PathOp::Kind::kDown;
      down = !down;
    } else if (roll < 0.91) {
      op.kind = PathOp::Kind::kBandwidth;
      op.arg = 1'000'000 + static_cast<std::int64_t>(rng.uniform_int(16)) *
                               1'000'000;
    } else if (roll < 0.94) {
      op.kind = PathOp::Kind::kFilter;
    } else if (roll < 0.97) {
      op.kind = PathOp::Kind::kDelay;
      // 0..8 ms in 250 us steps.
      op.arg = static_cast<std::int64_t>(rng.uniform_int(33)) * 250'000;
    } else {
      op.kind = PathOp::Kind::kWire;
    }
    script.push_back(op);
  }
  return script;
}

}  // namespace slowcc::test
