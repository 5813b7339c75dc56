#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"

namespace slowcc::net {

class Link;

/// Anything that terminates packets at a node: transport agents, sinks,
/// traffic generators' receivers.
///
/// Handlers receive the packet by const reference: for a packet off a
/// link it aliases the pool slot (released by the Node right after the
/// call returns), for a value injected through `Node::deliver(Packet&&)`
/// the caller's packet. Handlers needing the packet beyond the call
/// copy what they keep — in practice they read a few header fields,
/// which is why the zero-copy terminal dispatch is free.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle_packet(const Packet& p) = 0;
};

/// A network node: hosts local handlers (keyed by port) and forwards
/// transit packets via a static forwarding table (keyed by destination
/// node).
///
/// Both tables are flat vectors indexed directly by id: node ids are
/// dense from 0 (Topology numbers nodes as it adds them) and ports are
/// dense from 1 (`allocate_port`), so a lookup on every forwarded or
/// terminated packet is one bounds check and one load — no hashing. A
/// negative or out-of-range id, or an empty slot, is undeliverable,
/// exactly as a missing entry is.
///
/// Routing is static and computed once by `Topology::compute_routes`;
/// the paper's scenarios never change topology mid-run (bandwidth
/// changes are modeled by competing traffic, as in the paper).
class Node {
 public:
  explicit Node(NodeId id, std::string name = {})
      : id_(id), name_(std::move(name)) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Bind `handler` to a local port. Packets addressed to this node and
  /// port are handed to it. Throws SimError (kBadTopology) if the port
  /// is taken or negative.
  void attach(PortId port, PacketHandler& handler);

  /// Release a port binding (used when short flows finish); no-op when
  /// the port is unbound.
  void detach(PortId port);

  /// Install/replace the outgoing link for packets destined to `dst`.
  /// Throws SimError (kBadTopology) if `dst` is negative.
  void set_route(NodeId dst, Link& out);

  /// Accept a packet by value (agents inject through this): dispatch
  /// locally if it is addressed here, otherwise forward along the route
  /// (the link moves it into the pool). Packets with no local handler
  /// or no route are counted and discarded (this happens legitimately
  /// when a short web flow has already torn down).
  void deliver(Packet&& p);

  /// Accept a pooled packet off a link: local packets dispatch by
  /// reference into the pool slot and the handle is released;
  /// forwarded packets pass the handle to the next link untouched.
  /// Undeliverable handles are released, so the node never leaks pool
  /// slots.
  void deliver(PacketHandle h, PacketPool& pool);

  /// Allocate a node-unique port (monotonically increasing).
  [[nodiscard]] PortId allocate_port() noexcept { return next_port_++; }

  [[nodiscard]] std::uint64_t undeliverable_count() const noexcept {
    return undeliverable_;
  }

 private:
  // Table entry for `id`, or nullptr when the id is negative (it wraps
  // to a huge index), past the end, or unbound.
  template <class T>
  [[nodiscard]] static T* lookup(const std::vector<T*>& table,
                                 std::int32_t id) noexcept {
    const auto i = static_cast<std::size_t>(id);
    return i < table.size() ? table[i] : nullptr;
  }

  NodeId id_;
  std::string name_;
  std::vector<PacketHandler*> handlers_;  // indexed by PortId
  std::vector<Link*> routes_;             // indexed by destination NodeId
  PortId next_port_ = 1;
  std::uint64_t undeliverable_ = 0;
};

}  // namespace slowcc::net
