#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_filter.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {

class Node;
class Link;

/// Observer hooks for per-link instrumentation (loss monitors,
/// throughput monitors, traces). Observers must outlive the link or
/// detach with `Link::remove_observer` first.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  /// A packet arrived at the link (before the admission decision).
  virtual void on_arrival(const Packet& /*p*/) {}
  /// The packet was rejected (queue drop, scripted loss, down link,
  /// or wire impairment).
  virtual void on_drop(const Packet& /*p*/, DropReason /*reason*/) {}
  /// The packet finished serialization and left toward the peer.
  virtual void on_depart(const Packet& /*p*/) {}
  /// The link's operating parameters changed (bandwidth, propagation
  /// delay, or up/down state). Inspect the link for the new values.
  virtual void on_state_change(const Link& /*link*/) {}
};

/// Verdict of a wire impairment model for one departing packet.
struct WireVerdict {
  bool drop = false;          // lose the packet on the wire
  bool duplicate = false;     // deliver a second copy as well
  sim::Time extra_delay;      // added propagation delay (reordering)
  sim::Time duplicate_delay;  // additional delay of the duplicate copy
};

/// Stochastic impairment applied between serialization and delivery:
/// bursty loss, reordering, duplication. `fault::WireImpairment` is
/// the standard implementation; tests may supply their own.
class WireModel {
 public:
  virtual ~WireModel() = default;
  [[nodiscard]] virtual WireVerdict on_wire(const Packet& p) = 0;
};

/// Running totals a link keeps about itself.
struct LinkStats {
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_early = 0;
  std::uint64_t drops_forced = 0;
  std::uint64_t drops_link_down = 0;
  std::uint64_t drops_impairment = 0;
  std::uint64_t duplicates = 0;  // extra copies injected on the wire
  std::uint64_t reordered = 0;   // packets delivered with extra wire delay
  std::int64_t bytes_delivered = 0;

  [[nodiscard]] std::uint64_t drops_total() const noexcept {
    return drops_overflow + drops_early + drops_forced + drops_link_down +
           drops_impairment;
  }

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

/// A unidirectional serial link: queue -> transmitter -> wire.
///
/// Serialization takes `size * 8 / bandwidth`; the packet then
/// propagates for `delay` before being delivered to the destination
/// node. Self-clocking of window-based transports emerges from these
/// two stages, exactly as on a real path.
///
/// Links are dynamic: bandwidth, propagation delay, and up/down state
/// may change mid-run (see the `fault::FaultInjector`). Semantics:
///  * `set_bandwidth` re-times the packet currently in the
///    transmitter — its already-serialized fraction is kept and the
///    remaining bytes continue at the new rate.
///  * `set_propagation_delay` applies to departures after the change;
///    packets already propagating keep the delay they left with.
///  * `set_down` drops the in-flight packet and the whole queue with
///    `DropReason::kLinkDown` and rejects arrivals until `set_up`.
///    Packets already propagating were past the failure point and
///    still deliver.
///
/// Packets live in the simulation's PacketPool and move as 8-byte
/// handles (DESIGN.md §14). Back-to-back departures on a saturated link
/// coalesce into one batched drain chain (a sim::ChainedEvent re-armed
/// in place per packet instead of one engine event each), and in-flight
/// deliveries ride a per-link propagation FIFO fronted by a second
/// chain — one armed chain emits the whole pipeline, N packets per
/// scheduler interaction, with an engine fallback for the rare non-FIFO
/// cases (wire extra delays, duplicates, a propagation delay shrunk
/// mid-flight). The executed (at, seq) stream is the one a transmitter
/// scheduling one engine event per departure and per delivery would
/// mint; `test::ScalarLink` (tests/scalar_link.hpp) is that transmitter,
/// and the differential tests hold the two to it.
class Link {
 public:
  Link(sim::Simulator& sim, Node& from, Node& to, double bandwidth_bps,
       sim::Time propagation_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Disarms the drain chain and returns the in-flight packet to the
  /// pool (links always die before the Simulator they reference).
  ~Link();

  /// Offer a packet by value: it moves into the pool, then takes the
  /// handle path below.
  void send(Packet&& p);

  /// Offer a pooled packet for transmission (what an upstream Node
  /// forwards along). Ownership of `h` passes to the link on admission;
  /// on drop the link releases it.
  void send(PacketHandle h);

  [[nodiscard]] double bandwidth_bps() const noexcept { return bandwidth_; }
  [[nodiscard]] sim::Time propagation_delay() const noexcept { return delay_; }
  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Queue& queue() noexcept { return *queue_; }
  [[nodiscard]] const Queue& queue() const noexcept { return *queue_; }
  [[nodiscard]] Node& from() noexcept { return from_; }
  [[nodiscard]] Node& to() noexcept { return to_; }

  // -- dynamic reconfiguration (fault injection) --------------------

  /// Change the serialization rate; must be > 0. Takes effect
  /// immediately: an in-flight packet's remaining bytes are re-timed
  /// at the new rate.
  void set_bandwidth(double bandwidth_bps);

  /// Change the propagation delay; must be >= 0. Applies to packets
  /// departing after the change.
  void set_propagation_delay(sim::Time delay);

  /// Take the link down (see class comment). Idempotent.
  void set_down();

  /// Restore a downed link. Idempotent.
  void set_up();

  [[nodiscard]] bool is_up() const noexcept { return up_; }

  /// True while a packet occupies the transmitter.
  [[nodiscard]] bool transmitting() const noexcept {
    return in_flight_h_.valid();
  }

  /// Install a stochastic wire impairment (nullptr clears). The model
  /// must outlive the link or be cleared first; the link does not own
  /// it.
  void set_wire_model(WireModel* model) noexcept { wire_ = model; }
  [[nodiscard]] WireModel* wire_model() const noexcept { return wire_; }

  // -- observers ----------------------------------------------------

  /// Register an observer. Throws `sim::SimError` (kBadConfig) if it
  /// is already registered — double registration would double-count
  /// every monitor's statistics.
  void add_observer(LinkObserver* observer);

  /// Unregister an observer; harmless no-op if it is not registered.
  void remove_observer(LinkObserver* observer);

  /// Install a deterministic drop filter, used by the smoothness
  /// experiments to impose scripted loss patterns. Returning true
  /// drops the packet before it reaches the queue. Accepts any
  /// callable (see PacketFilter); pass {} or nullptr to clear.
  void set_forced_drop_filter(PacketFilter filter) {
    forced_drop_ = std::move(filter);
  }

 private:
  // Delivery closure: 16 bytes, trivially copyable, so
  // scheduling it never leaves std::function's inline buffer.
  struct Deliver {
    Link* link;
    PacketHandle h;
    void operator()() const { link->deliver_pooled(h); }
  };

  // One in-flight delivery in the propagation FIFO: fire time, the seq
  // minted for it (where a per-delivery engine event would have been
  // scheduled), its handle.
  struct WireEntry {
    sim::Time at;
    std::uint64_t seq = 0;
    PacketHandle h;
  };

  void start_transmission();
  void drain_step();  // one chained sub-event per departing packet
  static void drain_thunk(void* ctx) {
    static_cast<Link*>(ctx)->drain_step();
  }
  void wire_step();  // deliver the propagation head
  static void wire_thunk(void* ctx) {
    static_cast<Link*>(ctx)->wire_step();
  }
  void depart(PacketHandle h);  // wire verdict + delivery scheduling
  void schedule_delivery(PacketHandle h, sim::Time at);
  // Ring index `i` entries past the head; the ring size is a power of
  // two, so the wrap is a mask rather than a division.
  [[nodiscard]] std::size_t wire_slot(std::size_t i) const noexcept {
    return (wire_head_ + i) & (wire_ring_.size() - 1);
  }
  void wire_push(const WireEntry& entry);
  [[nodiscard]] WireEntry wire_pop();
  void deliver_pooled(PacketHandle h);
  void drop_packet(const Packet& p, DropReason reason);
  void notify_state_change();

  sim::Simulator& sim_;
  PacketPool& pool_;
  Node& from_;
  Node& to_;
  double bandwidth_;
  sim::Time delay_;
  std::unique_ptr<Queue> queue_;
  std::vector<LinkObserver*> observers_;
  PacketFilter forced_drop_;
  WireModel* wire_ = nullptr;
  LinkStats stats_;
  bool up_ = true;

  // Transmitter state, kept here (not in an event closure) so
  // bandwidth changes and link failures can re-time or drop it: the
  // packet's handle + the drain chain, armed exactly while a packet
  // occupies the transmitter.
  PacketHandle in_flight_h_;
  sim::ChainedEvent chain_;
  sim::Time tx_ends_;

  // Propagation pipeline: a circular FIFO of in-flight
  // deliveries fronted by one chain armed at the head's (at, seq).
  // Kept fire-time-monotonic by construction — a delivery that would
  // land before the current tail (propagation delay shrunk mid-flight,
  // wire-model extra delay) falls back to an engine event instead.
  std::vector<WireEntry> wire_ring_;
  std::size_t wire_head_ = 0;
  std::size_t wire_count_ = 0;
  sim::ChainedEvent wire_chain_;
};

}  // namespace slowcc::net
