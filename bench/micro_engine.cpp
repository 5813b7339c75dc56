// Engine micro-benchmarks (google-benchmark): raw event throughput,
// queue disciplines, link forwarding, a full dumbbell in flight, and a
// saturated link against the scalar reference.
#include <benchmark/benchmark.h>

#include <memory>

#include "heap_scheduler.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/red_queue.hpp"
#include "scalar_link.hpp"
#include "scenario/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "sim/wheel_scheduler.hpp"
#include "traffic/cbr_source.hpp"

using namespace slowcc;

// The two event-queue benchmarks run once per engine (name suffix
// /heap, /wheel): the production timer wheel against the reference
// heap the differential tests compare it with (tests/heap_scheduler).
// tools/bench_report pairs the variants up and reports the wheel:heap
// speedup in BENCH_engine.json.
template <class Engine>
static void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Engine q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(sim::Time::micros(i), [] {});
    }
    sim::PoppedEvent ev;
    while (!q.empty()) q.pop(&ev)();
    benchmark::DoNotOptimize(ev.seq);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun<test::HeapScheduler>)->Name(
    "BM_EventQueueScheduleRun/heap");
BENCHMARK(BM_EventQueueScheduleRun<sim::WheelScheduler>)->Name(
    "BM_EventQueueScheduleRun/wheel");

template <class Engine>
static void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    Engine q;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(q.schedule(sim::Time::micros(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) (void)q.pop(nullptr);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy<test::HeapScheduler>)->Name(
    "BM_EventQueueCancelHeavy/heap");
BENCHMARK(BM_EventQueueCancelHeavy<sim::WheelScheduler>)->Name(
    "BM_EventQueueCancelHeavy/wheel");

// Drain-chain ledger row: one chain sub-event of the run loop at a
// fixed armed count (state.range(0)). The earliest chain fires, then
// moves the way net::Link chains move on a full-scale Fig. 3 trial
// (`slowcc_spec --run specs/paper_fig03_stabilization.toml`, every
// chain call counted): 42.3% of fires disarm (1,722,621 of 4,073,928;
// the bench arms the chain again at once, as the next packet of an
// idle link would), the rest retime. Hops are drawn from the measured
// (at - now) of those calls, below. Armed counts: 10 and 24 are the
// Fig. 3 mean and maximum (9.8 and 23), 46 the most the 20-flow
// topology of bench/fig04_stabilization_time arms at once (14.5 on
// average), 188 its chain count (two per link), a bound no run
// reaches. Items are executed events, so 1e9 / items_per_second is the
// per-event cost.
struct ChainHop {
  std::int64_t ns;
  std::uint32_t weight;  // per mille of the measured calls
};
// retime_chain hops: serialization of the next packet (800 us for
// 1000 B on the 10 Mb/s bottleneck, 80 us on a 100 Mb/s access link,
// 32 us for a 40-byte ACK at 10 Mb/s) and wire-FIFO spacings; 96.8% of
// the calls. The other 3.2% spread over 721 other values.
constexpr ChainHop kRetimeHops[] = {
    {800000, 518}, {32000, 230}, {80000, 122}, {832000, 29}, {864000, 23},
    {784000, 19},  {64000, 14},  {96000, 8},   {1600000, 5}};
// arm_chain hops: a transmission starting on an idle link (80 us, 3.2 us
// for an ACK at 100 Mb/s, 32 us, 800 us) or a wire FIFO's first
// delivery one 1 ms propagation delay out; 99.9% of the 1,722,631
// calls.
constexpr ChainHop kArmHops[] = {
    {80000, 365}, {3200, 341}, {1000000, 247}, {32000, 38}, {800000, 8}};
constexpr std::uint32_t kDisarmPerMille = 423;

class ChainCycleBench {
 public:
  explicit ChainCycleBench(std::size_t n) : cells_(n) {
    for (Cell& cell : cells_) {
      cell.bench = this;
      cell.chain.fire = &ChainCycleBench::fire;
      cell.chain.ctx = &cell;
      cell.chain.at = sim::Time::nanos(draw(kArmHops));
      cell.chain.seq = sim_.mint_event_seq();
      sim_.arm_chain(&cell.chain);
    }
  }

  sim::Simulator& sim() { return sim_; }

 private:
  struct Cell {
    sim::ChainedEvent chain;
    ChainCycleBench* bench = nullptr;
  };

  // xorshift64: a deterministic draw in [0, limit).
  std::uint32_t uniform(std::uint32_t limit) {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return static_cast<std::uint32_t>(rng_ % limit);
  }

  template <std::size_t N>
  std::int64_t draw(const ChainHop (&hops)[N]) {
    std::uint32_t total = 0;
    for (const ChainHop& h : hops) total += h.weight;
    std::uint32_t r = uniform(total);
    for (const ChainHop& h : hops) {
      if (r < h.weight) return h.ns;
      r -= h.weight;
    }
    return hops[N - 1].ns;
  }

  static void fire(void* ctx) {
    Cell* cell = static_cast<Cell*>(ctx);
    cell->bench->step(&cell->chain);
  }

  void step(sim::ChainedEvent* c) {
    if (uniform(1000) >= kDisarmPerMille) {
      sim_.retime_chain(c, sim_.now() + sim::Time::nanos(draw(kRetimeHops)),
                        sim_.mint_event_seq());
    } else {
      sim_.disarm_chain(c);
      c->at = sim_.now() + sim::Time::nanos(draw(kArmHops));
      c->seq = sim_.mint_event_seq();
      sim_.arm_chain(c);
    }
  }

  sim::Simulator sim_;
  std::vector<Cell> cells_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

static void BM_DrainChainCycle(benchmark::State& state) {
  ChainCycleBench bench(static_cast<std::size_t>(state.range(0)));
  sim::Simulator& sim = bench.sim();
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = sim.events_executed();
    sim.run_until(sim.now() + sim::Time::millis(1));
    events += sim.events_executed() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DrainChainCycle)->Arg(10)->Arg(24)->Arg(46)->Arg(188);

static void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  net::DropTailQueue q(64);
  net::Packet p;
  for (auto _ : state) {
    net::Packet copy = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(copy)));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

static void BM_RedEnqueueDequeue(benchmark::State& state) {
  sim::Simulator sim;
  net::RedConfig cfg;
  cfg.limit_packets = 64;
  cfg.min_thresh = 5;
  cfg.max_thresh = 15;
  net::RedQueue q(sim, cfg);
  net::Packet p;
  for (auto _ : state) {
    net::Packet copy = p;
    benchmark::DoNotOptimize(q.enqueue(std::move(copy)));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedEnqueueDequeue);

static void BM_DumbbellTcpSecond(benchmark::State& state) {
  // Cost of simulating one second of a loaded dumbbell (10 TCP flows at
  // 10 Mb/s): the workhorse configuration of every experiment.
  for (auto _ : state) {
    sim::Simulator sim;
    scenario::DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    scenario::Dumbbell net(sim, cfg);
    for (int i = 0; i < 10; ++i) net.add_flow(scenario::FlowSpec::tcp());
    net.start_flows();
    net.finalize();
    sim.run_until(sim::Time::seconds(1.0));
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_DumbbellTcpSecond)->Unit(benchmark::kMillisecond);

static void BM_DumbbellTfrcSecond(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    scenario::DumbbellConfig cfg;
    cfg.reverse_tcp_flows = 0;
    scenario::Dumbbell net(sim, cfg);
    for (int i = 0; i < 10; ++i) net.add_flow(scenario::FlowSpec::tfrc(6));
    net.start_flows();
    net.finalize();
    sim.run_until(sim::Time::seconds(1.0));
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_DumbbellTfrcSecond)->Unit(benchmark::kMillisecond);

// Packet hot-path macro-bench (ROADMAP item 3): one saturated link —
// the differential harness's rig, node -> link -> sink node — at the
// dumbbell bottleneck's 10 Mb/s, 23 ms and 2.5-BDP DropTail buffer.
// Bursts are injected between run_until slices (no per-packet source
// timers), so every executed event is a link departure or delivery:
// exactly the regime where net::Link's batched drain chain, wire FIFO
// and pool handles pay off against test::ScalarLink's one engine event
// per departure and per delivery with the packet captured by value.
// Runs once per link (/scalar drives test::ScalarLink, the reference
// compiled in from tests/; /pooled drives net::Link); both execute the
// identical logical event stream (tests/test_packet_path_diff.cpp pins
// that), so the ns-per-op ratio is the events/s speedup that
// tools/bench_report reports as pooled_speedup.
struct NullSink final : net::PacketHandler {
  void handle_packet(const net::Packet& p) override {
    benchmark::DoNotOptimize(p.seq);
  }
};

template <class LinkT>
static void BM_SaturatedLink(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::Node src{0, "src"};
    net::Node dst{1, "dst"};
    NullSink sink;
    dst.attach(1, sink);
    LinkT link(sim, src, dst, 10e6, sim::Time::millis(23),
               std::make_unique<net::DropTailQueue>(156));
    // 64 packets x 1000 B at 10 Mb/s = 51.2 ms per burst drain.
    std::int64_t seq = 0;
    for (int burst = 0; burst < 48; ++burst) {
      for (int i = 0; i < 64; ++i) {
        net::Packet p;
        p.src_node = 0;
        p.dst_node = 1;
        p.dst_port = 1;
        p.seq = seq++;
        p.size_bytes = 1000;
        link.send(std::move(p));
      }
      sim.run_until(sim::Time::millis(52) * (burst + 1));
    }
    sim.run();
    events += static_cast<std::int64_t>(sim.events_executed());
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SaturatedLink<test::ScalarLink>)
    ->Name("BM_SaturatedLink/scalar")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SaturatedLink<net::Link>)
    ->Name("BM_SaturatedLink/pooled")
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
