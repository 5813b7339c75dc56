#include <gtest/gtest.h>

#include "net/packet_pool.hpp"
#include "net/topology.hpp"
#include "sim/error.hpp"
#include "sim/simulator.hpp"

namespace slowcc::net {
namespace {

struct Capture final : PacketHandler {
  std::vector<Packet> received;
  void handle_packet(const Packet& p) override { received.push_back(std::move(p)); }
};

TEST(Node, AttachDetachPorts) {
  Node n(0);
  Capture h;
  n.attach(5, h);
  EXPECT_THROW(n.attach(5, h), std::logic_error);
  n.detach(5);
  n.attach(5, h);  // reattach works after detach
}

TEST(Node, AllocatePortIsUnique) {
  Node n(0);
  const PortId p1 = n.allocate_port();
  const PortId p2 = n.allocate_port();
  EXPECT_NE(p1, p2);
}

TEST(Node, UndeliverableCountsMissingHandlerAndRoute) {
  Node n(0);
  Packet to_me;
  to_me.dst_node = 0;
  to_me.dst_port = 42;  // no handler
  n.deliver(std::move(to_me));
  Packet transit;
  transit.dst_node = 9;  // no route
  n.deliver(std::move(transit));
  EXPECT_EQ(n.undeliverable_count(), 2u);
}

TEST(Topology, RoutesAcrossMultiHopChain) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node("a");
  Node& r1 = topo.add_node("r1");
  Node& r2 = topo.add_node("r2");
  Node& b = topo.add_node("b");
  topo.add_duplex(a, r1, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r1, r2, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r2, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture sink;
  b.attach(1, sink);
  Packet p;
  p.src_node = a.id();
  p.dst_node = b.id();
  p.dst_port = 1;
  a.deliver(std::move(p));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
}

TEST(Topology, ReverseDirectionAlsoRouted) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& r = topo.add_node();
  Node& b = topo.add_node();
  topo.add_duplex(a, r, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(r, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture at_a;
  a.attach(1, at_a);
  Packet p;
  p.src_node = b.id();
  p.dst_node = a.id();
  p.dst_port = 1;
  b.deliver(std::move(p));
  sim.run();
  EXPECT_EQ(at_a.received.size(), 1u);
}

TEST(Topology, ShortestPathPreferredOverDetour) {
  sim::Simulator sim;
  Topology topo(sim);
  // a - b - c with an extra a - d - e - c detour: BFS must pick a-b-c.
  Node& a = topo.add_node("a");
  Node& b = topo.add_node("b");
  Node& c = topo.add_node("c");
  Node& d = topo.add_node("d");
  Node& e = topo.add_node("e");
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  auto [direct_bc, unused] = topo.add_duplex(b, c, 10e6, sim::Time::millis(1), 100);
  (void)unused;
  topo.add_duplex(a, d, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(d, e, 10e6, sim::Time::millis(1), 100);
  topo.add_duplex(e, c, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();

  Capture sink;
  c.attach(1, sink);
  Packet p;
  p.src_node = a.id();
  p.dst_node = c.id();
  p.dst_port = 1;
  a.deliver(std::move(p));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(direct_bc->stats().departures, 1u) << "short path used";
}

TEST(Topology, NodeNamesAndCount) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node("alpha");
  Node& b = topo.add_node();
  EXPECT_EQ(a.name(), "alpha");
  EXPECT_EQ(b.name(), "n1");
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(&topo.node(0), &a);
}

TEST(Topology, UnreachableNodesSimplyDropTraffic) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();  // no links at all
  topo.compute_routes();
  Packet p;
  p.src_node = a.id();
  p.dst_node = b.id();
  a.deliver(std::move(p));
  sim.run();
  EXPECT_EQ(a.undeliverable_count(), 1u);
}

// The forwarding and handler tables are flat vectors indexed by id;
// every id they cannot serve must count as undeliverable on both
// deliver overloads, and the pooled one must return the slot.
Packet addressed(NodeId node, PortId port) {
  Packet p;
  p.dst_node = node;
  p.dst_port = port;
  return p;
}

TEST(NodeTable, UnservableIdsAreUndeliverableByValue) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();
  Capture h;
  a.attach(3, h);
  a.detach(3);  // bound once, now a hole inside the table
  a.attach(4, h);

  const std::vector<Packet> bad = {
      addressed(-1, 1),        // negative destination node
      addressed(-7, 1),
      addressed(5, 1),         // past the routing table
      addressed(a.id(), 3),    // detached port
      addressed(a.id(), 2),    // never bound, inside the table
      addressed(a.id(), 99),   // past the handler table
      addressed(a.id(), -1),   // negative port
  };
  for (Packet p : bad) a.deliver(std::move(p));
  EXPECT_EQ(a.undeliverable_count(), bad.size());
  EXPECT_TRUE(h.received.empty());

  a.deliver(addressed(a.id(), 4));
  EXPECT_EQ(h.received.size(), 1u);
  EXPECT_EQ(a.undeliverable_count(), bad.size());
}

TEST(NodeTable, UnservableIdsReleaseTheirPoolSlot) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  topo.compute_routes();
  Capture h;
  a.attach(1, h);
  PacketPool& pool = PacketPool::of(sim);
  const std::size_t before = pool.live();

  for (const Packet& p :
       {addressed(-1, 1), addressed(9, 1), addressed(a.id(), 2),
        addressed(a.id(), 1000), addressed(a.id(), -3)}) {
    a.deliver(pool.acquire(Packet(p)), pool);
    EXPECT_EQ(pool.live(), before);
  }
  EXPECT_EQ(a.undeliverable_count(), 5u);

  // A served packet also returns its slot once the handler is done.
  a.deliver(pool.acquire(addressed(a.id(), 1)), pool);
  EXPECT_EQ(h.received.size(), 1u);
  EXPECT_EQ(pool.live(), before);
  EXPECT_EQ(a.undeliverable_count(), 5u);
}

TEST(NodeTable, NegativeIdsAreRejectedAtBindTime) {
  sim::Simulator sim;
  Topology topo(sim);
  Node& a = topo.add_node();
  Node& b = topo.add_node();
  auto [ab, ba] = topo.add_duplex(a, b, 10e6, sim::Time::millis(1), 100);
  (void)ba;
  Capture h;
  try {
    a.attach(-1, h);
    FAIL() << "negative port must throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadTopology);
  }
  try {
    a.set_route(-2, *ab);
    FAIL() << "negative destination must throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadTopology);
  }
  try {
    a.attach(2, h);
    a.attach(2, h);
    FAIL() << "double bind must throw";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrc::kBadTopology);
  }
}

TEST(NodeTable, DetachUnboundIsNoOpAndReattachWorks) {
  Node n(0);
  Capture first;
  Capture second;
  n.detach(1);    // never bound
  n.detach(-4);   // negative
  n.detach(500);  // past the table
  n.attach(2, first);
  n.detach(2);
  n.detach(2);  // twice
  n.attach(2, second);
  n.deliver(addressed(0, 2));
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(second.received.size(), 1u);
  EXPECT_EQ(n.undeliverable_count(), 0u);
}

}  // namespace
}  // namespace slowcc::net
