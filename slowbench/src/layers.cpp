// Per-layer rows: each times calls into one module's public functions,
// in steady state, at the standing occupancy the traced run observed.
// Every row warms up (pools grown, queues and timers filled, loss
// histories populated) before the first timed repetition and reports
// the median over its repetitions.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "cc/response_function.hpp"
#include "cc/tcp_agent.hpp"
#include "cc/tfrc_loss_history.hpp"
#include "cc/tfrc_sink.hpp"
#include "cc/window_policy.hpp"
#include "fault/gilbert_elliott.hpp"
#include "metrics/loss_rate_monitor.hpp"
#include "metrics/throughput_monitor.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet_pool.hpp"
#include "net/red_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "spec/scenario_spec.hpp"

namespace slowbench {
namespace {

using slowcc::sim::Time;
namespace sim = slowcc::sim;
namespace net = slowcc::net;
namespace cc = slowcc::cc;
namespace metrics = slowcc::metrics;

constexpr int kReps = 11;

/// The workload's bottleneck path, from the dumbbell its spec compiles
/// to (1000-byte packets).
struct Path {
  explicit Path(const LayerInputs& in)
      : bps(in.bottleneck_bps),
        delay(Time::seconds(in.bottleneck_delay_s)),
        rtt(Time::seconds(in.base_rtt_s)),
        packet_time(Time::seconds(8000.0 / in.bottleneck_bps)),
        bdp(in.bottleneck_bps * in.base_rtt_s / 8000.0) {}
  double bps;
  Time delay;
  Time rtt;
  Time packet_time;
  double bdp;  // packets
};

volatile double g_sink = 0.0;  // keeps timed results observable

/// Median over kReps of `rep()`, which returns ns per operation; one
/// untimed call first warms the row up.
double median_of(const std::function<double()>& rep) {
  (void)rep();
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(rep());
  return median(std::move(v));
}

/// Time `ops` calls of `op(i)`; returns ns per call.
template <class Op>
double time_ops(std::int64_t ops, Op&& op) {
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t i = 0; i < ops; ++i) op(i);
  return seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

std::vector<Time> delay_table(std::uint64_t seed, Time max) {
  sim::Rng rng(seed);
  std::vector<Time> out(4096);
  for (Time& t : out) {
    t = Time::nanos(static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(max.as_nanos()))));
  }
  return out;
}

/// Sequence increments (1 = in order, 2 = one loss) at loss rate p.
std::vector<std::int64_t> gap_table(double p) {
  sim::Rng rng(7);
  std::vector<std::int64_t> out(4096);
  for (auto& g : out) g = rng.chance(p) ? 2 : 1;
  return out;
}

std::size_t standing(std::uint64_t want, std::size_t limit) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(want), 1, limit - 1);
}

// ---- sim ---------------------------------------------------------------

/// Hold model: every event re-schedules itself a random delay ahead, so
/// the pending set stays at its initial occupancy. The callback carries
/// one pointer, like the library's own timer callbacks, so it fits
/// std::function's inline storage.
struct HoldState {
  sim::Simulator& sim;
  std::vector<Time> delays;
  std::size_t next = 0;
  Time draw() { return delays[next++ & 4095]; }
};
struct Hold {
  HoldState* st;
  void operator()() const { st->sim.schedule_at(st->sim.now() + st->draw(), *this); }
};

double sim_schedule_run_ns(const Path& path, std::uint64_t occupancy) {
  sim::Simulator s;
  HoldState st{s, delay_table(1, path.rtt + path.rtt)};
  for (std::uint64_t i = 0; i < occupancy; ++i) s.schedule_at(st.draw(), Hold{&st});
  // Mean delay is one RTT, so the engine fires `occupancy` events per
  // RTT of simulated time; advance enough for ~200k events per rep.
  const Time step = path.rtt * (200000.0 / static_cast<double>(occupancy));
  return median_of([&] {
    const std::uint64_t e0 = s.events_executed();
    const Clock::time_point t0 = Clock::now();
    s.run_until(s.now() + step);
    return seconds_since(t0) * 1e9 /
           static_cast<double>(s.events_executed() - e0);
  });
}

double sim_timer_rearm_ns(const Path& path, std::uint64_t occupancy) {
  sim::Simulator s;
  const std::vector<Time> delays = delay_table(2, path.rtt + path.rtt);
  for (std::uint64_t i = 1; i < occupancy; ++i) {
    s.schedule_at(delays[i & 4095], [] {});
  }
  sim::Timer timer(s, [] {});
  timer.schedule_in(path.rtt);
  return median_of([&] {
    return time_ops(100000, [&](std::int64_t i) {
      timer.schedule_in(path.rtt + delays[static_cast<std::size_t>(i) & 4095]);
    });
  });
}

double sim_construct_us() {
  return median_of([] {
    return time_ops(500, [](std::int64_t) {
             sim::Simulator s;
             g_sink = g_sink + static_cast<double>(
                                   net::PacketPool::of(s).capacity());
           }) /
           1e3;
  });
}

// ---- net ---------------------------------------------------------------

/// Enqueue + dequeue through a queue held at `occupancy` packets: an
/// admitted packet is followed by one departure, a dropped one is
/// reused, so the standing length never changes.
double queue_admit_ns(net::Queue& q, net::PacketPool& pool,
                      std::size_t occupancy) {
  q.attach_pool(&pool);
  for (int tries = 0; q.length_packets() < occupancy && tries < 100000;
       ++tries) {
    const net::PacketHandle h = pool.acquire(net::Packet{});
    if (q.enqueue(h).has_value()) pool.release(h);
  }
  net::PacketHandle spare = pool.acquire(net::Packet{});
  const double ns = median_of([&] {
    return time_ops(200000, [&](std::int64_t) {
      if (!q.enqueue(spare).has_value()) spare = q.dequeue_handle();
    });
  });
  pool.release(spare);
  return ns;
}

double net_red_admit_ns(const Path& path, std::uint64_t live_packets) {
  sim::Simulator s;
  net::RedConfig cfg = net::RedConfig::for_bdp(path.bdp);
  cfg.mean_packet_size = 1000.0;
  net::RedQueue q(s, cfg);
  return queue_admit_ns(q, net::PacketPool::of(s),
                        standing(live_packets, cfg.limit_packets));
}

double net_droptail_admit_ns(const Path& path, std::uint64_t live_packets) {
  sim::Simulator s;
  const auto limit =
      static_cast<std::size_t>(std::max(2.5 * path.bdp, 4.0));
  net::DropTailQueue q(limit);
  return queue_admit_ns(q, net::PacketPool::of(s),
                        standing(live_packets, limit));
}

/// Re-sends one packet per delivery, keeping the link saturated.
class Echo final : public net::PacketHandler {
 public:
  Echo(net::Link& link, net::NodeId dst, net::PortId port)
      : link_(link), dst_(dst), port_(port) {}
  void handle_packet(const net::Packet&) override {
    ++delivered;
    send();
  }
  void send() {
    net::Packet p;
    p.dst_node = dst_;
    p.dst_port = port_;
    link_.send(std::move(p));
  }
  std::uint64_t delivered = 0;

 private:
  net::Link& link_;
  net::NodeId dst_;
  net::PortId port_;
};

double net_link_hop_ns(const Path& path, std::uint64_t live_packets) {
  sim::Simulator s;
  net::Node a(0);
  net::Node b(1);
  const std::size_t queued = standing(live_packets, 1000);
  net::Link link(s, a, b, path.bps, path.delay,
                 std::make_unique<net::DropTailQueue>(queued + 64));
  const net::PortId port = b.allocate_port();
  Echo echo(link, b.id(), port);
  b.attach(port, echo);
  // The wire holds one propagation delay's worth of packets; the rest
  // stand in the queue.
  const auto on_wire =
      static_cast<std::size_t>(path.delay.as_seconds() /
                               path.packet_time.as_seconds()) + 1;
  for (std::size_t i = 0; i < queued + on_wire; ++i) echo.send();
  const Time step = path.packet_time * 100000.0;
  const double ns = median_of([&] {
    const std::uint64_t d0 = echo.delivered;
    const Clock::time_point t0 = Clock::now();
    s.run_until(s.now() + step);
    return seconds_since(t0) * 1e9 /
           static_cast<double>(echo.delivered - d0);
  });
  b.detach(port);
  return ns;
}

class NullHandler final : public net::PacketHandler {
 public:
  void handle_packet(const net::Packet&) override {}
};

double net_node_deliver_ns(const Path& path, int nodes) {
  // A dumbbell node's tables: a route to each of the other nodes, and
  // one port on a host. A packet takes four deliver calls end to end:
  // the agent injects it at its host, both routers forward it, and the
  // destination host hands it to its port; so three forwards run per
  // local delivery.
  sim::Simulator s;
  net::PacketPool& pool = net::PacketPool::of(s);
  net::Node router(0);
  net::Node host(static_cast<net::NodeId>(nodes));
  std::vector<std::unique_ptr<net::Node>> peers;
  std::vector<std::unique_ptr<net::Link>> links;
  const int routes = std::max(nodes - 1, 1);
  for (int i = 1; i <= routes; ++i) {
    peers.push_back(std::make_unique<net::Node>(i));
    links.push_back(std::make_unique<net::Link>(
        s, router, *peers.back(), path.bps, path.delay,
        std::make_unique<net::DropTailQueue>(64)));
    // Down: a forwarded packet is dropped at the link's door, so the row
    // times the lookup and hand-off, not a transmission.
    links.back()->set_down();
    router.set_route(i, *links.back());
  }
  NullHandler sink;
  const net::PortId port = host.allocate_port();
  host.attach(port, sink);
  std::vector<net::Packet> packets(64);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i % 4 == 3) {
      packets[i].dst_node = host.id();
      packets[i].dst_port = port;
    } else {
      packets[i].dst_node =
          1 + static_cast<net::NodeId>((i * 7) % static_cast<std::size_t>(routes));
    }
  }
  const double ns = median_of([&] {
    return time_ops(200000, [&](std::int64_t i) {
      const std::size_t k = static_cast<std::size_t>(i) & 63;
      net::Node& at = k % 4 == 3 ? host : router;
      net::Packet p = packets[k];
      at.deliver(pool.acquire(std::move(p)), pool);
    });
  });
  host.detach(port);
  return ns;
}

double net_pool_cycle_ns(std::uint64_t live_packets) {
  net::PacketPool pool;
  std::vector<net::PacketHandle> live(std::max<std::uint64_t>(live_packets, 1));
  for (auto& h : live) h = pool.acquire(net::Packet{});
  std::size_t k = 0;
  const double ns = median_of([&] {
    return time_ops(200000, [&](std::int64_t) {
      pool.release(live[k]);
      live[k] = pool.acquire(net::Packet{});
      k = k + 1 == live.size() ? 0 : k + 1;
    });
  });
  for (auto h : live) pool.release(h);
  return ns;
}

// ---- cc ----------------------------------------------------------------

double cc_tcp_ack_ns(const Path& path, double cwnd) {
  // A fresh agent per rep, already in congestion avoidance at the
  // window the traced flows ran at; its segments leave through a node
  // with no route, so each ACK costs the agent's own work plus one
  // injection.
  return median_of([&] {
    sim::Simulator s;
    s.run_until(Time::seconds(1.0));
    net::Node host(0);
    cc::TcpConfig cfg;
    cfg.initial_cwnd = cwnd;
    cfg.initial_ssthresh = cwnd;
    cc::TcpAgent tcp(s, host, 1, 1, 1,
                     std::make_unique<cc::AimdPolicy>(
                         cc::AimdPolicy::tcp_compatible(0.5)),
                     cfg);
    tcp.start();
    net::Packet ack;
    ack.type = net::PacketType::kAck;
    return time_ops(20000, [&](std::int64_t i) {
      if ((i & 15) == 0) s.run_until(s.now() + path.packet_time * 16.0);
      ack.seq = tcp.snd_una() + 1;
      ack.echo = s.now() - path.rtt;
      tcp.handle_packet(ack);
    });
  });
}

double cc_tfrc_sink_packet_ns(const Path& path, double loss_rate) {
  sim::Simulator s;
  net::Node host(0);
  cc::TfrcSink sink(s, host, 6);
  const std::vector<std::int64_t> gaps = gap_table(loss_rate);
  net::Packet p;
  p.type = net::PacketType::kTfrcData;
  p.src_node = 1;
  p.src_port = 1;
  p.flow = 1;
  p.rtt_estimate = path.rtt;
  std::int64_t seq = 0;
  // The clock moves in 16-packet steps, so the per-RTT feedback timer
  // fires inside the timed region at its real rate.
  return median_of([&] {
    return time_ops(100000, [&](std::int64_t i) {
      if ((i & 15) == 0) s.run_until(s.now() + path.packet_time * 16.0);
      seq += gaps[static_cast<std::size_t>(i) & 4095];
      p.seq = seq;
      p.sent_at = s.now();
      sink.handle_packet(p);
    });
  });
}

double cc_loss_history_ns(const Path& path, int n, double loss_rate) {
  cc::TfrcLossHistory h(n);
  const std::vector<std::int64_t> gaps = gap_table(loss_rate);
  std::int64_t seq = 0;
  Time now;
  // Fill all n intervals before timing: 3 n / p packets.
  const auto fill = static_cast<std::int64_t>(3.0 * n / loss_rate);
  for (std::int64_t i = 0; i < fill; ++i) {
    seq += gaps[static_cast<std::size_t>(i) & 4095];
    now += path.packet_time;
    (void)h.on_packet(seq, now, path.rtt);
  }
  double acc = 0.0;
  const double ns = median_of([&] {
    return time_ops(100000, [&](std::int64_t i) {
      seq += gaps[static_cast<std::size_t>(i) & 4095];
      now += path.packet_time;
      (void)h.on_packet(seq, now, path.rtt);
      acc += h.loss_event_rate();
    });
  });
  g_sink = g_sink + acc;
  return ns;
}

double cc_response_function_ns(const Path& path, double loss_rate) {
  sim::Rng rng(3);
  std::vector<double> ps(4096);
  for (double& p : ps) p = loss_rate * rng.uniform(0.5, 1.5);
  double acc = 0.0;
  const double ns = median_of([&] {
    return time_ops(200000, [&](std::int64_t i) {
      acc += cc::padhye_rate_bytes_per_sec(
          ps[static_cast<std::size_t>(i) & 4095], path.rtt, 1000,
          Time::millis(200));
    });
  });
  g_sink = g_sink + acc;
  return ns;
}

// ---- metrics / fault / spec / exp --------------------------------------

double metrics_link_observer_ns(const Path& path) {
  sim::Simulator s;
  net::Node a(0);
  net::Node b(1);
  net::Link link(s, a, b, path.bps, path.delay,
                 std::make_unique<net::DropTailQueue>(64));
  // The spec compiler's bottleneck monitors: 0.1 s bins, data filter.
  metrics::LossRateMonitor losses(s, link, Time::millis(100));
  metrics::ThroughputMonitor tput(
      s, link, Time::millis(100),
      [](const net::Packet& p) { return p.type == net::PacketType::kData; });
  net::Packet p;
  const double ns = median_of([&] {
    return time_ops(100000, [&](std::int64_t i) {
      if ((i & 15) == 0) s.run_until(s.now() + path.packet_time * 16.0);
      losses.on_arrival(p);
      tput.on_depart(p);
    });
  });
  g_sink = g_sink + static_cast<double>(tput.total_bytes());
  return ns;
}

double fault_gilbert_elliott_ns() {
  slowcc::fault::GilbertElliott ge(slowcc::fault::GilbertElliottConfig{},
                                   sim::Rng(5));
  std::uint64_t drops = 0;
  const double ns = median_of([&] {
    return time_ops(500000, [&](std::int64_t) { drops += ge.should_drop(); });
  });
  g_sink = g_sink + static_cast<double>(drops);
  return ns;
}

double spec_parse_us(const std::string& path) {
  return median_of([&] {
    return time_ops(20, [&](std::int64_t) {
             const auto spec = slowcc::spec::parse_scenario_file(path);
             g_sink = g_sink + static_cast<double>(spec.flows.size());
           }) /
           1e3;
  });
}

double exp_row_json_us(const std::vector<slowcc::exp::Row>& rows) {
  return median_of([&] {
    return time_ops(2000, [&](std::int64_t i) {
             g_sink = g_sink +
                      static_cast<double>(
                          rows[static_cast<std::size_t>(i) % rows.size()]
                              .to_json()
                              .size());
           }) /
           1e3;
  });
}

std::string at(const char* what, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%g", what, v);
  return buf;
}

}  // namespace

std::vector<LayerRow> run_layer_rows(const LayerInputs& in) {
  const Path path(in);
  const double p = in.loss_rate > 0 ? in.loss_rate : 0.01;
  const auto ev = static_cast<double>(std::max<std::uint64_t>(in.live_events, 16));
  const auto pk = static_cast<double>(in.live_packets);
  const double cwnd = std::max(in.cwnd_packets, 2.0);
  const std::string link = at("bottleneck_mbps", path.bps / 1e6) + " " +
                           at("rtt_ms", path.rtt.as_seconds() * 1e3);
  const std::string events = at("pending_events", ev);
  const std::string packets = at("live_packets", pk) + " " + link;
  const std::string loss = at("loss_rate", p) + " " + link;
  std::vector<LayerRow> out;
  out.push_back({"sim.schedule_run_ns", "ns",
                 sim_schedule_run_ns(path, static_cast<std::uint64_t>(ev)),
                 events});
  out.push_back({"sim.timer_rearm_ns", "ns",
                 sim_timer_rearm_ns(path, static_cast<std::uint64_t>(ev)),
                 events});
  out.push_back({"sim.construct_us", "us", sim_construct_us(), ""});
  out.push_back({"net.red_admit_ns", "ns",
                 net_red_admit_ns(path, in.live_packets), packets});
  out.push_back({"net.droptail_admit_ns", "ns",
                 net_droptail_admit_ns(path, in.live_packets), packets});
  out.push_back({"net.link_hop_ns", "ns",
                 net_link_hop_ns(path, in.live_packets), packets});
  out.push_back({"net.node_deliver_ns", "ns",
                 net_node_deliver_ns(path, in.nodes),
                 at("routes", std::max(in.nodes - 1, 1)) +
                     " forwards_per_local=3"});
  out.push_back({"net.pool_cycle_ns", "ns", net_pool_cycle_ns(in.live_packets),
                 packets});
  out.push_back({"cc.tcp_ack_ns", "ns", cc_tcp_ack_ns(path, cwnd),
                 at("cwnd", cwnd) + " " + link});
  out.push_back({"cc.tfrc_sink_packet_ns", "ns",
                 cc_tfrc_sink_packet_ns(path, p), loss});
  out.push_back({"cc.tfrc_loss_history_k6_ns", "ns",
                 cc_loss_history_ns(path, 6, p), loss});
  out.push_back({"cc.tfrc_loss_history_k256_ns", "ns",
                 cc_loss_history_ns(path, 256, p), loss});
  out.push_back({"cc.response_function_ns", "ns",
                 cc_response_function_ns(path, p), loss});
  out.push_back({"metrics.link_observer_ns", "ns",
                 metrics_link_observer_ns(path), "bin=0.1s " + link});
  out.push_back({"fault.gilbert_elliott_ns", "ns", fault_gilbert_elliott_ns(),
                 "default config"});
  out.push_back({"spec.parse_us", "us", spec_parse_us(in.spec_path), ""});
  out.push_back({"exp.row_json_us", "us", exp_row_json_us(in.rows),
                 at("rows", static_cast<double>(in.rows.size()))});
  return out;
}

}  // namespace slowbench
