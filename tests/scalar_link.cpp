#include "scalar_link.hpp"

#include <utility>

#include "net/packet_pool.hpp"

namespace slowcc::test {

ScalarLink::ScalarLink(sim::Simulator& sim, net::Node& /*from*/,
                       net::Node& to, double bandwidth_bps,
                       sim::Time propagation_delay,
                       std::unique_ptr<net::Queue> queue)
    : sim_(sim),
      to_(to),
      bandwidth_(bandwidth_bps),
      delay_(propagation_delay),
      queue_(std::move(queue)) {
  // The attachments net::Link's constructor makes, so pool and governor
  // counters compare like with like across the two links.
  queue_->attach_governor(&sim_.governor());
  queue_->attach_pool(&net::PacketPool::of(sim_));
}

void ScalarLink::count_drop(net::DropReason reason) noexcept {
  switch (reason) {
    case net::DropReason::kOverflow:
      ++stats_.drops_overflow;
      break;
    case net::DropReason::kEarly:
      ++stats_.drops_early;
      break;
    case net::DropReason::kForced:
      ++stats_.drops_forced;
      break;
    case net::DropReason::kLinkDown:
      ++stats_.drops_link_down;
      break;
    case net::DropReason::kImpairment:
      ++stats_.drops_impairment;
      break;
  }
}

void ScalarLink::send(net::Packet&& p) {
  ++stats_.arrivals;
  if (!up_) {
    count_drop(net::DropReason::kLinkDown);
    return;
  }
  if (forced_drop_ && forced_drop_(p)) {
    count_drop(net::DropReason::kForced);
    return;
  }
  if (auto reason = queue_->enqueue(std::move(p))) {
    count_drop(*reason);
    return;
  }
  if (!transmitting()) start_transmission();
}

void ScalarLink::start_transmission() {
  auto head = queue_->dequeue();
  if (!head) return;
  const sim::Time tx = sim::transmission_time(head->size_bytes, bandwidth_);
  in_flight_ = std::move(*head);
  tx_ends_ = sim_.now() + tx;
  tx_event_ = sim_.schedule_in(tx, [this] { on_transmit_complete(); });
}

void ScalarLink::on_transmit_complete() {
  tx_event_ = sim::EventId{};
  net::Packet p = std::move(*in_flight_);
  in_flight_.reset();

  net::WireVerdict verdict;
  if (wire_ != nullptr) verdict = wire_->on_wire(p);

  if (verdict.drop) {
    count_drop(net::DropReason::kImpairment);
  } else {
    ++stats_.departures;
    stats_.bytes_delivered += p.size_bytes;
    if (verdict.extra_delay > sim::Time()) ++stats_.reordered;
    if (verdict.duplicate) {
      ++stats_.duplicates;
      net::Packet copy = p;
      sim_.schedule_in(
          delay_ + verdict.extra_delay + verdict.duplicate_delay,
          [this, q = std::move(copy)]() mutable { to_.deliver(std::move(q)); });
    }
    sim_.schedule_in(delay_ + verdict.extra_delay,
                     [this, q = std::move(p)]() mutable {
                       to_.deliver(std::move(q));
                     });
  }

  if (!queue_->empty()) start_transmission();
}

void ScalarLink::set_bandwidth(double bandwidth_bps) {
  if (bandwidth_bps == bandwidth_) return;
  if (transmitting()) {
    // Keep the fraction already serialized; the remaining bits continue
    // at the new rate.
    const double remaining_s = (tx_ends_ - sim_.now()).as_seconds();
    const double remaining_bits = remaining_s * bandwidth_;
    const sim::Time rem = sim::Time::seconds(remaining_bits / bandwidth_bps);
    tx_ends_ = sim_.now() + rem;
    sim_.cancel(tx_event_);
    tx_event_ = sim_.schedule_in(rem, [this] { on_transmit_complete(); });
  }
  bandwidth_ = bandwidth_bps;
}

void ScalarLink::set_propagation_delay(sim::Time delay) { delay_ = delay; }

void ScalarLink::set_down() {
  if (!up_) return;
  up_ = false;
  if (transmitting()) {
    sim_.cancel(tx_event_);
    tx_event_ = sim::EventId{};
    in_flight_.reset();
    count_drop(net::DropReason::kLinkDown);
  }
  while (queue_->dequeue()) count_drop(net::DropReason::kLinkDown);
}

void ScalarLink::set_up() {
  if (up_) return;
  up_ = true;
  if (!transmitting() && !queue_->empty()) start_transmission();
}

}  // namespace slowcc::test
