#pragma once

// test::ScalarLink — the one-engine-event-per-departure transmitter
// that net::Link replaced, kept as the reference the packet-path
// differential tests (packet_path_diff.hpp) and the /scalar row of
// BM_SaturatedLink (bench/micro_engine) hold net::Link against.
//
// Packets move by value: the queue's value API round-trips each one
// through the simulation's PacketPool, the transmitter holds the packet
// in an optional, and every departure and every delivery is its own
// engine event carrying the packet in its closure. The (at, seq) stream
// this mints is the contract net::Link's drain chain and wire FIFO must
// reproduce draw for draw:
//  * one transmit-complete event scheduled when a packet enters the
//    transmitter;
//  * set_bandwidth cancels it and schedules the re-timed one (a fresh
//    seq);
//  * on departure the duplicate's delivery (if the wire model asks for
//    one) is scheduled before the original's.
//
// It covers what the harness drives — send, up/down, bandwidth and
// delay changes, the forced-drop filter, a wire model, stats and queue —
// and nothing else (no observers).

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_filter.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {

class ScalarLink {
 public:
  /// Same signature as net::Link's constructor so a harness can be a
  /// template over the link type; `from` is not needed by the oracle.
  ScalarLink(sim::Simulator& sim, net::Node& from, net::Node& to,
             double bandwidth_bps, sim::Time propagation_delay,
             std::unique_ptr<net::Queue> queue);

  ScalarLink(const ScalarLink&) = delete;
  ScalarLink& operator=(const ScalarLink&) = delete;

  void send(net::Packet&& p);

  void set_bandwidth(double bandwidth_bps);
  void set_propagation_delay(sim::Time delay);
  void set_down();
  void set_up();

  void set_forced_drop_filter(net::PacketFilter filter) {
    forced_drop_ = std::move(filter);
  }
  void set_wire_model(net::WireModel* model) noexcept { wire_ = model; }

  [[nodiscard]] const net::LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Queue& queue() noexcept { return *queue_; }

 private:
  [[nodiscard]] bool transmitting() const noexcept {
    return in_flight_.has_value();
  }
  void start_transmission();
  void on_transmit_complete();
  void count_drop(net::DropReason reason) noexcept;

  sim::Simulator& sim_;
  net::Node& to_;
  double bandwidth_;
  sim::Time delay_;
  std::unique_ptr<net::Queue> queue_;
  net::PacketFilter forced_drop_;
  net::WireModel* wire_ = nullptr;
  net::LinkStats stats_;
  bool up_ = true;

  std::optional<net::Packet> in_flight_;
  sim::EventId tx_event_;
  sim::Time tx_ends_;
};

}  // namespace slowcc::test
