#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "net/node.hpp"
#include "sim/error.hpp"

namespace slowcc::net {

Link::Link(sim::Simulator& sim, Node& from, Node& to, double bandwidth_bps,
           sim::Time propagation_delay, std::unique_ptr<Queue> queue)
    : sim_(sim),
      pool_(PacketPool::of(sim)),
      from_(from),
      to_(to),
      bandwidth_(bandwidth_bps),
      delay_(propagation_delay),
      queue_(std::move(queue)) {
  if (bandwidth_ <= 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "bandwidth must be positive");
  }
  if (delay_.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "propagation delay must be >= 0");
  }
  if (queue_ == nullptr) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link", "queue is required");
  }
  // Every link-owned queue reports occupancy to the simulation's
  // resource governor; the hooks are no-ops until a budget is armed.
  queue_->attach_governor(&sim_.governor());
  // Buffered handles live in the simulation-wide pool so they pass from
  // arrival through queue to delivery without a copy.
  queue_->attach_pool(&pool_);
  chain_.fire = &Link::drain_thunk;
  chain_.ctx = this;
  wire_chain_.fire = &Link::wire_thunk;
  wire_chain_.ctx = this;
}

Link::~Link() {
  sim_.disarm_chain(&chain_);
  sim_.disarm_chain(&wire_chain_);
  if (in_flight_h_.valid()) pool_.release(in_flight_h_);
  while (wire_count_ != 0) pool_.release(wire_pop().h);
}

void Link::drop_packet(const Packet& p, DropReason reason) {
  switch (reason) {
    case DropReason::kOverflow:
      ++stats_.drops_overflow;
      break;
    case DropReason::kEarly:
      ++stats_.drops_early;
      break;
    case DropReason::kForced:
      ++stats_.drops_forced;
      break;
    case DropReason::kLinkDown:
      ++stats_.drops_link_down;
      break;
    case DropReason::kImpairment:
      ++stats_.drops_impairment;
      break;
  }
  for (auto* o : observers_) o->on_drop(p, reason);
}

void Link::send(Packet&& p) { send(pool_.acquire(std::move(p))); }

void Link::send(PacketHandle h) {
  ++stats_.arrivals;
  {
    const Packet& p = pool_.get(h);
    for (auto* o : observers_) o->on_arrival(p);

    if (!up_) {
      drop_packet(p, DropReason::kLinkDown);
      pool_.release(h);
      return;
    }

    if (forced_drop_ && forced_drop_(p)) {
      drop_packet(p, DropReason::kForced);
      pool_.release(h);
      return;
    }
  }

  if (auto reason = queue_->enqueue(h)) {
    // Rejected handles stay with the caller: report the drop, then
    // return the packet to the pool.
    drop_packet(pool_.get(h), *reason);
    pool_.release(h);
    return;
  }

  if (!transmitting()) start_transmission();
}

void Link::start_transmission() {
  const PacketHandle h = queue_->dequeue_handle();
  if (!h.valid()) return;
  const sim::Time tx =
      sim::transmission_time(pool_.get(h).size_bytes, bandwidth_);
  in_flight_h_ = h;
  tx_ends_ = sim_.now() + tx;
  // The drain chain stands in for a transmit-complete engine event
  // scheduled here; minting its seq from the same engine counter keeps
  // the executed (at, seq) stream identical to that one-event-per-
  // departure schedule (test::ScalarLink).
  const std::uint64_t seq = sim_.mint_event_seq();
  if (chain_.armed()) {
    sim_.retime_chain(&chain_, tx_ends_, seq);
  } else {
    chain_.at = tx_ends_;
    chain_.seq = seq;
    sim_.arm_chain(&chain_);
  }
}

void Link::depart(PacketHandle h) {
  // `p` stays valid across the acquire below: the pool's chunked slabs
  // never move existing slots.
  Packet& p = pool_.get(h);

  WireVerdict verdict;
  if (wire_ != nullptr) verdict = wire_->on_wire(p);

  if (verdict.drop) {
    // Lost on the wire after occupying the transmitter: counted as a
    // drop instead of a departure so packet conservation still holds.
    drop_packet(p, DropReason::kImpairment);
    pool_.release(h);
    return;
  }

  ++stats_.departures;
  stats_.bytes_delivered += p.size_bytes;
  for (auto* o : observers_) o->on_depart(p);

  if (verdict.extra_delay > sim::Time()) ++stats_.reordered;
  if (verdict.duplicate) {
    ++stats_.duplicates;
    Packet copy = p;
    const PacketHandle dup = pool_.acquire(std::move(copy));
    sim_.schedule_in(delay_ + verdict.extra_delay + verdict.duplicate_delay,
                     Deliver{this, dup});
  }
  schedule_delivery(h, sim_.now() + delay_ + verdict.extra_delay);
}

void Link::schedule_delivery(PacketHandle h, sim::Time at) {
  if (wire_count_ != 0 && at < wire_ring_[wire_slot(wire_count_ - 1)].at) {
    // Non-FIFO delivery (propagation delay shrunk mid-flight, or a
    // wire-model extra delay shorter than an earlier one): the engine
    // keeps the total order. The schedule mints the seq, exactly as
    // the chain path does explicitly below.
    sim_.schedule_in(at - sim_.now(), Deliver{this, h});
    return;
  }
  // The seq is minted here — the point where a per-delivery engine
  // event would have been scheduled — so the executed (at, seq) stream
  // is bit-identical whether the FIFO or the engine carries it.
  const WireEntry entry{at, sim_.mint_event_seq(), h};
  wire_push(entry);
  if (!wire_chain_.armed()) {
    wire_chain_.at = entry.at;
    wire_chain_.seq = entry.seq;
    sim_.arm_chain(&wire_chain_);
  }
  wire_chain_.pending = wire_count_;
}

void Link::wire_push(const WireEntry& entry) {
  if (wire_count_ == wire_ring_.size()) {
    // Warm-up growth only: double (16 floor, so the size stays a power
    // of two for wire_slot's mask) and re-lay from the head.
    // slowcc-lint: allow(no-hot-path-alloc) ring growth is cold; steady state recycles slots
    std::vector<WireEntry> grown(
        std::max<std::size_t>(16, wire_ring_.size() * 2));
    for (std::size_t i = 0; i < wire_count_; ++i) {
      grown[i] = wire_ring_[wire_slot(i)];
    }
    wire_ring_ = std::move(grown);
    wire_head_ = 0;
  }
  wire_ring_[wire_slot(wire_count_)] = entry;
  ++wire_count_;
}

Link::WireEntry Link::wire_pop() {
  const WireEntry entry = wire_ring_[wire_head_];
  wire_head_ = wire_slot(1);
  --wire_count_;
  return entry;
}

void Link::wire_step() {
  // Pop and re-arm before delivering: the handler may reentrantly
  // inject traffic, and the chain must already describe the new head
  // (or be disarmed) when it does.
  const WireEntry entry = wire_pop();
  if (wire_count_ != 0) {
    const WireEntry& head = wire_ring_[wire_head_];
    sim_.retime_chain(&wire_chain_, head.at, head.seq);
  } else {
    sim_.disarm_chain(&wire_chain_);
  }
  wire_chain_.pending = wire_count_;
  deliver_pooled(entry.h);
}

void Link::drain_step() {
  // One chained sub-event: finish the in-flight packet, then either
  // re-arm the chain in place for the next queued packet or let it go
  // quiet. The (at, seq) this step executed under were minted when the
  // packet entered the transmitter (start_transmission).
  const PacketHandle h = in_flight_h_;
  in_flight_h_ = PacketHandle{};
  depart(h);

  // A nested set_down() (from a drop/depart observer) may have drained
  // the queue and disarmed the chain; a nested set_up()+send may even
  // have restarted transmission. Only continue the burst when the
  // transmitter is genuinely free.
  if (up_ && !transmitting() && !queue_->empty()) {
    start_transmission();  // re-arms / re-times the chain in place
  } else if (!transmitting()) {
    sim_.disarm_chain(&chain_);
  }
}

void Link::deliver_pooled(PacketHandle h) { to_.deliver(h, pool_); }

void Link::set_bandwidth(double bandwidth_bps) {
  if (bandwidth_bps <= 0.0) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "set_bandwidth: bandwidth must be positive");
  }
  if (bandwidth_bps == bandwidth_) return;
  if (transmitting()) {
    // Keep the fraction already serialized; the remaining bits
    // continue at the new rate.
    const double remaining_s = (tx_ends_ - sim_.now()).as_seconds();
    const double remaining_bits = remaining_s * bandwidth_;
    const sim::Time rem = sim::Time::seconds(remaining_bits / bandwidth_bps);
    tx_ends_ = sim_.now() + rem;
    // Re-time the chain in place. The seq is re-minted: this is the
    // counter draw a cancel + reschedule of the transmit-complete event
    // would make.
    sim_.retime_chain(&chain_, tx_ends_, sim_.mint_event_seq());
  }
  bandwidth_ = bandwidth_bps;
  notify_state_change();
}

void Link::set_propagation_delay(sim::Time delay) {
  if (delay.is_negative()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "set_propagation_delay: delay must be >= 0");
  }
  if (delay == delay_) return;
  delay_ = delay;
  notify_state_change();
}

void Link::set_down() {
  if (!up_) return;
  up_ = false;
  if (transmitting()) {
    sim_.disarm_chain(&chain_);
    const PacketHandle h = in_flight_h_;
    in_flight_h_ = PacketHandle{};
    drop_packet(pool_.get(h), DropReason::kLinkDown);
    pool_.release(h);
  }
  for (PacketHandle h = queue_->dequeue_handle(); h.valid();
       h = queue_->dequeue_handle()) {
    drop_packet(pool_.get(h), DropReason::kLinkDown);
    pool_.release(h);
  }
  notify_state_change();
}

void Link::set_up() {
  if (up_) return;
  up_ = true;
  notify_state_change();
  if (!transmitting() && !queue_->empty()) start_transmission();
}

void Link::add_observer(LinkObserver* observer) {
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    throw sim::SimError(sim::SimErrc::kBadConfig, "Link",
                        "add_observer: observer already registered");
  }
  observers_.push_back(observer);
}

void Link::remove_observer(LinkObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void Link::notify_state_change() {
  for (auto* o : observers_) o->on_state_change(*this);
}

}  // namespace slowcc::net
