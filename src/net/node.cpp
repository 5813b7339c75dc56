#include "net/node.hpp"

#include "sim/error.hpp"

#include "net/link.hpp"

namespace slowcc::net {

void Node::attach(PortId port, PacketHandler& handler) {
  if (port < 0 || lookup(handlers_, port) != nullptr) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Node",
                        "attach: port " + std::to_string(port) +
                            (port < 0 ? " is negative" : " already bound") +
                            " on node " + std::to_string(id_));
  }
  const auto slot = static_cast<std::size_t>(port);
  if (slot >= handlers_.size()) handlers_.resize(slot + 1, nullptr);
  handlers_[slot] = &handler;
}

void Node::detach(PortId port) {
  if (lookup(handlers_, port) != nullptr) {
    handlers_[static_cast<std::size_t>(port)] = nullptr;
  }
}

void Node::set_route(NodeId dst, Link& out) {
  if (dst < 0) {
    throw sim::SimError(sim::SimErrc::kBadTopology, "Node",
                        "set_route: negative destination node " +
                            std::to_string(dst) + " on node " +
                            std::to_string(id_));
  }
  const auto slot = static_cast<std::size_t>(dst);
  if (slot >= routes_.size()) routes_.resize(slot + 1, nullptr);
  routes_[slot] = &out;
}

void Node::deliver(Packet&& p) {
  if (p.dst_node == id_) {
    PacketHandler* const handler = lookup(handlers_, p.dst_port);
    if (handler == nullptr) {
      ++undeliverable_;
      return;
    }
    handler->handle_packet(p);
    return;
  }
  Link* const route = lookup(routes_, p.dst_node);
  if (route == nullptr) {
    ++undeliverable_;
    return;
  }
  route->send(std::move(p));
}

void Node::deliver(PacketHandle h, PacketPool& pool) {
  const Packet& p = pool.get(h);
  if (p.dst_node == id_) {
    PacketHandler* const handler = lookup(handlers_, p.dst_port);
    if (handler != nullptr) {
      // Zero-copy terminal dispatch: `p` aliases the pool slot, which
      // stays put even if the handler reentrantly injects new packets
      // (chunked pool storage never moves live slots).
      handler->handle_packet(p);
    } else {
      ++undeliverable_;
    }
    pool.release(h);
    return;
  }
  Link* const route = lookup(routes_, p.dst_node);
  if (route == nullptr) {
    ++undeliverable_;
    pool.release(h);
    return;
  }
  route->send(h);
}

}  // namespace slowcc::net
