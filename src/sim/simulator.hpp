#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"

// slowcc-lint: allow-file(no-std-function-hot-path) observer/hook slots
// are per-Simulator control-plane state, not per-event; the per-event
// callbacks live in the pooled engine entries behind EventQueue.

namespace slowcc::sim {

/// One pending sub-event of a batched drain chain (DESIGN.md §14). A
/// chain source — net::Link draining a saturated queue in batched mode —
/// keeps exactly one of these armed per in-flight transmission instead
/// of scheduling an engine event per departure. The run loop merges the
/// chain into the engine's (at, seq) total order: when the chain is the
/// global minimum it advances the clock, counts the event, folds the
/// digest, and calls `fire(ctx)` directly — no engine storage, no
/// std::function, no engine pop. Invariants the source must keep:
///   - `seq` comes from Simulator::mint_event_seq() at exactly the point
///     the unbatched path would have called schedule_*() — this is what
///     makes trace_digest() bit-identical across the two paths
///   - `at`/`seq` are written directly only while the chain is unarmed;
///     an armed chain moves through Simulator::retime_chain(), which
///     re-sorts the Simulator's chain set (it keeps its own copy of the
///     key). Re-timing (the next packet of a burst, set_bandwidth on an
///     in-flight packet) re-mints the seq, exactly as a
///     cancel+reschedule would
///   - the chain is disarmed before `ctx` dies (Links disarm in ~Link;
///     components always die before the Simulator they reference)
struct ChainedEvent {
  Time at;
  std::uint64_t seq = 0;
  void (*fire)(void* ctx) = nullptr;
  void* ctx = nullptr;
  /// How many unbatched engine events this chain currently stands in
  /// for. A transmit chain is always 1 (one pending transmit-complete);
  /// a propagation chain fronting a FIFO of in-flight deliveries sets
  /// it to the FIFO's occupancy, so pending_events() — and with it the
  /// ResourceGovernor's event footprint and budget-abort points — stay
  /// identical to the scalar schedule.
  std::uint64_t pending = 1;

  /// Whether the chain is currently armed on a Simulator.
  [[nodiscard]] bool armed() const noexcept { return armed_; }

 private:
  friend class Simulator;
  bool armed_ = false;
};

/// Discrete-event simulation driver.
///
/// A `Simulator` owns the event queue and the simulation clock. All
/// simulation components (links, agents, monitors) hold a reference to
/// one `Simulator` and schedule their work through it. The clock only
/// advances when `run*` pops events, so callbacks observe a consistent
/// `now()`.
class Simulator {
 public:
  /// Observer invoked at the end of every Simulator constructor on the
  /// thread it was registered on (see `set_thread_construct_observer`).
  using ConstructObserver = std::function<void(Simulator&)>;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedule `cb` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, EventCallback cb);

  /// Schedule `cb` to run `delay` from now.
  EventId schedule_in(Time delay, EventCallback cb);

  /// Cancel a pending event; no-op if already fired or cancelled.
  void cancel(EventId id) {
    if (queue_.cancel(id)) engine_head_stale_ = true;
  }

  /// Consume the next FIFO sequence number without storing an engine
  /// event. Batched drain chains mint their sub-event seqs here (see
  /// ChainedEvent above).
  [[nodiscard]] std::uint64_t mint_event_seq() noexcept {
    return queue_.mint_seq();
  }

  /// Register / move / remove a drain chain. Armed chains sit in a
  /// set sorted by (at, seq) with the earliest at the back (see
  /// chains_ below).
  ///   - arm_chain validates at >= now(); double-arming throws SimError
  ///     (kBadSchedule). The pointed-to event must stay valid while
  ///     armed.
  ///   - retime_chain moves an armed chain to a new (at, seq) — the only
  ///     legal way to re-arm in place, including from inside the chain's
  ///     own fire(). Retiming into the past or an unarmed chain throws
  ///     SimError (kBadSchedule).
  ///   - disarm_chain is a no-op when the chain is not armed.
  void arm_chain(ChainedEvent* chain);
  void retime_chain(ChainedEvent* chain, Time at, std::uint64_t seq) {
    if (!chain->armed() || at < now_) throw_bad_retime(chain, at);
    chain->at = at;
    chain->seq = seq;
    if (chains_.back().chain == chain) {
      // The earliest chain re-arming itself (the next packet of a burst,
      // the next delivery of a wire FIFO): its slot is already the back.
      chain_settle(chains_.size() - 1, chain_key(at, seq), chain);
    } else {
      retime_buried(chain);
    }
  }
  void disarm_chain(ChainedEvent* chain) noexcept {
    if (!chain->armed()) return;
    if (chains_.back().chain == chain) {
      chains_.pop_back();
      chain->armed_ = false;
    } else {
      disarm_buried(chain);
    }
  }

  /// Run until the queue drains.
  void run();

  /// Run until the queue drains or the clock passes `deadline`.
  /// Events at exactly `deadline` are executed. After returning, the
  /// clock is at `deadline` (or at the last event if the queue drained
  /// earlier), so subsequent `run_until` calls continue seamlessly.
  void run_until(Time deadline);

  /// Number of events executed so far (for micro-benchmarks and tests).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// FNV-1a digest over the (fire-time, seq) pairs of every event
  /// executed so far. The golden-trace tests pin scenario digests, and
  /// the differential harness checks a reference heap engine driven by
  /// the same workload produces the same value.
  [[nodiscard]] std::uint64_t trace_digest() const noexcept {
    return trace_digest_;
  }

  /// Events executed by every Simulator on the calling thread since
  /// thread start — lets a trial harness meter a simulation's cost
  /// without reaching inside the scenario driver that owns it.
  [[nodiscard]] static std::uint64_t thread_events_executed() noexcept;

  /// Hard per-simulation event budget: once `max_events` further events
  /// have executed, `run*` throws SimError (kDeadlineExceeded). The
  /// count starts at the call (re-arming resets it); 0 removes the
  /// budget. Unlike a fault::Watchdog this needs no hook slot and is
  /// exact to the event, so it is the deterministic half of a trial
  /// deadline (the wall-clock half stays with the Watchdog).
  void set_event_budget(std::uint64_t max_events) noexcept {
    event_budget_ = max_events;
    event_budget_base_ = events_executed_;
  }

  [[nodiscard]] std::uint64_t event_budget() const noexcept {
    return event_budget_;
  }

  /// Live engine events plus armed drain-chain sub-events, so the count
  /// (and the governor's event footprint) matches the unbatched
  /// schedule one-for-one — each chain reports how many pending events
  /// it stands in for via ChainedEvent::pending.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    std::size_t n = queue_.size();
    for (const ChainEntry& e : chains_) {
      n += static_cast<std::size_t>(e.chain->pending);
    }
    return n;
  }

  /// Timestamps of the earliest pending events (diagnostics), merged
  /// across the engine and any armed drain chains.
  [[nodiscard]] std::vector<Time> pending_event_times(
      std::size_t max_entries) const;

  /// Install a hook invoked after every `every_events` executed events,
  /// regardless of whether simulated time advances — this is what lets
  /// a `fault::Watchdog` catch livelocks that sim-time timers cannot
  /// see. One hook slot exists; installing over an occupied slot
  /// throws `SimError` (kBadConfig). `every_events` must be >= 1.
  void set_event_hook(std::uint64_t every_events,
                      std::function<void()> hook);

  /// Remove the installed hook; no-op when none is installed.
  void clear_event_hook() noexcept {
    hook_every_ = 0;
    hook_ = nullptr;
  }

  /// Whether the single event-hook slot is occupied.
  [[nodiscard]] bool has_event_hook() const noexcept {
    return hook_every_ != 0;
  }

  /// Register an observer invoked (on this thread only) at the end of
  /// every Simulator constructor. This is how an orchestration layer
  /// imposes per-trial deadlines on simulations built deep inside
  /// scenario drivers it never sees: the observer can set an event
  /// budget and attach a fault::Watchdog to each new instance. One
  /// slot per thread; registering over an occupied slot throws
  /// SimError (kBadConfig). Passing nullptr clears the slot.
  static void set_thread_construct_observer(ConstructObserver observer);

  /// Keep `guard` alive for this Simulator's lifetime; guards are
  /// destroyed first in ~Simulator, while every other member is still
  /// valid. Lets a construct observer hang a Watchdog off the instance.
  void attach_guard(std::shared_ptr<void> guard) {
    guards_.push_back(std::move(guard));
  }

  /// Per-simulation resource accountant (see sim/resource.hpp). Always
  /// present but disarmed by default; `run*` only polls it when a
  /// budget is armed, so ungoverned simulations pay one branch per
  /// event. `net::Link` attaches its queue's counter hooks here, and
  /// `fault::ScopedTrialDeadline` arms per-trial byte budgets through
  /// its construct observer.
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  [[nodiscard]] const ResourceGovernor& governor() const noexcept {
    return governor_;
  }

  /// Next unique packet id for this simulation. Lives on the Simulator
  /// (not a global) so concurrent simulations on different threads
  /// never share a counter and every trial's uid sequence is
  /// deterministic in isolation.
  [[nodiscard]] std::uint64_t next_packet_uid() noexcept {
    return next_packet_uid_++;
  }

 private:
  // (at, seq) packed into one integer whose unsigned order is the run
  // loop's total order. Armed chains and the engine head never precede
  // now() >= 0, so the fire time's bit pattern sorts as its value.
  using ChainKey = unsigned __int128;
  [[nodiscard]] static ChainKey chain_key(Time at, std::uint64_t seq) noexcept {
    return (static_cast<ChainKey>(static_cast<std::uint64_t>(at.as_nanos()))
            << 64) |
           seq;
  }
  // Larger than any real key (fire times stop at 2^63 - 1 ns): stands
  // for "no engine event" so the loop needs no separate liveness test.
  static constexpr ChainKey kNoEngineKey = ~ChainKey{0};

  struct ChainEntry {
    ChainKey key;
    ChainedEvent* chain;
  };

  // Slot `hole` is free and every entry in front of it is sorted: shift
  // the entries that fire before `key` one slot back and write the new
  // entry where the walk stops. Keys are unique (seqs are minted once),
  // so the walk never compares equal.
  void chain_settle(std::size_t hole, ChainKey key,
                    ChainedEvent* chain) noexcept {
    while (hole > 0 && chains_[hole - 1].key < key) {
      chains_[hole] = chains_[hole - 1];
      --hole;
    }
    chains_[hole] = ChainEntry{key, chain};
  }
  // Retime / disarm of a chain that is not the earliest: a linear find
  // and erase; in net::Link only set_bandwidth, set_down and ~Link
  // reach these.
  void retime_buried(ChainedEvent* chain);
  void disarm_buried(ChainedEvent* chain) noexcept;
  // retime_chain's error path, out of line so the inline fast path —
  // taken for most packets a link transmits — stays a few instructions.
  [[noreturn]] void throw_bad_retime(const ChainedEvent* chain,
                                     Time at) const;

  EventQueue queue_;
  Time now_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_digest_ = kFnvOffsetBasis;
  std::uint64_t next_packet_uid_ = 1;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  std::uint64_t event_budget_base_ = 0;
  std::uint64_t hook_every_ = 0;
  std::function<void()> hook_;
  // Key of the engine's earliest live event (kNoEngineKey when none),
  // re-read from the queue only after schedule_*, a successful cancel,
  // or a pop. Engine events are a few percent of a figure run's events
  // (2.2% on Fig. 3, 5.9% on Fig. 14); every chain sub-event in between
  // reuses the cache instead of settling the wheel again.
  ChainKey engine_key_ = kNoEngineKey;
  bool engine_head_stale_ = true;
  // Armed drain chains sorted by key, earliest at the BACK: the run loop
  // reads back(), and the common moves — the firing chain re-arming for
  // the next packet or going quiet — are an in-place walk from the back
  // or a pop_back. A walk shifts only the chains that fire before the
  // new key, and a transmit chain re-arms one serialization time ahead,
  // so most walks stop within a slot or two. On a full-scale Fig. 3 run
  // (9.7 chains armed on average, 23 at most, 0.41 arms per event) this
  // costs less than the sifts of a binary min-heap did.
  std::vector<ChainEntry> chains_;
  ResourceGovernor governor_;
  // Declared last: guards (e.g. a Watchdog holding our hook slot) are
  // destroyed first, while the members they release are still alive.
  std::vector<std::shared_ptr<void>> guards_;
};

}  // namespace slowcc::sim
