#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "sim/error.hpp"

namespace slowcc::sim {
namespace {

// Per-thread state: the construct observer slot and the cumulative
// event counter. thread_local keeps concurrent sweep workers fully
// independent — one worker's trial deadline never leaks into another.
thread_local Simulator::ConstructObserver t_construct_observer;
thread_local std::uint64_t t_events_executed = 0;

}  // namespace

Simulator::Simulator() {
  if (t_construct_observer) {
    // Swap the slot out while the observer runs so an observer that
    // constructs helper Simulators cannot recurse into itself.
    ConstructObserver observer;
    observer.swap(t_construct_observer);
    try {
      observer(*this);
    } catch (...) {
      observer.swap(t_construct_observer);
      throw;
    }
    observer.swap(t_construct_observer);
  }
}

std::uint64_t Simulator::thread_events_executed() noexcept {
  return t_events_executed;
}

void Simulator::set_thread_construct_observer(ConstructObserver observer) {
  if (observer && t_construct_observer) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_thread_construct_observer: slot already occupied "
                   "on this thread (clear it with nullptr first)");
  }
  t_construct_observer = std::move(observer);
}

EventId Simulator::schedule_at(Time at, EventCallback cb) {
  if (at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_at: time in the past (" + at.to_string() + " < " +
                       now_.to_string() + ")");
  }
  engine_head_stale_ = true;
  return queue_.schedule(at, std::move(cb));
}

EventId Simulator::schedule_in(Time delay, EventCallback cb) {
  if (delay.is_negative()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_in: negative delay");
  }
  engine_head_stale_ = true;
  return queue_.schedule(now_ + delay, std::move(cb));
}

void Simulator::set_event_hook(std::uint64_t every_events,
                               EventCallback hook) {
  if (every_events == 0 || hook == nullptr) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: need every_events >= 1 and a callable");
  }
  if (hook_every_ != 0) {
    throw SimError(SimErrc::kBadConfig, "Simulator",
                   "set_event_hook: hook slot already occupied "
                   "(clear_event_hook first)");
  }
  hook_every_ = every_events;
  hook_ = std::move(hook);
}

void Simulator::arm_chain(ChainedEvent* chain) {
  if (chain == nullptr || chain->fire == nullptr) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: null chain or fire callback");
  }
  if (chain->at < now_) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: time in the past (" + chain->at.to_string() +
                       " < " + now_.to_string() + ")");
  }
  if (chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "arm_chain: chain already armed (re-arm in place with "
                   "retime_chain instead)");
  }
  // One transmit and one wire chain per link at most: the set tops
  // out at twice the topology's link count, not at the packet count.
  chains_.push_back({});  // slowcc-lint: allow(no-hot-path-alloc) bounded by link count, not packet count
  chain_settle(chains_.size() - 1, chain_key(chain->at, chain->seq), chain);
  chain->armed_ = true;
}

void Simulator::throw_bad_retime(const ChainedEvent* chain, Time at) const {
  if (!chain->armed()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "retime_chain: chain is not armed (arm_chain it first)");
  }
  throw SimError(SimErrc::kBadSchedule, "Simulator",
                 "retime_chain: time in the past (" + at.to_string() + " < " +
                     now_.to_string() + ")");
}

void Simulator::retime_buried(ChainedEvent* chain) {
  const auto it =
      std::find_if(chains_.begin(), chains_.end(),
                   [chain](const ChainEntry& e) { return e.chain == chain; });
  if (it == chains_.end()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "retime_chain: chain is not armed on this Simulator");
  }
  // Close the gap toward the back, then settle from the freed back slot.
  std::copy(it + 1, chains_.end(), it);
  chain_settle(chains_.size() - 1, chain_key(chain->at, chain->seq), chain);
}

void Simulator::disarm_buried(ChainedEvent* chain) noexcept {
  const auto it =
      std::find_if(chains_.begin(), chains_.end(),
                   [chain](const ChainEntry& e) { return e.chain == chain; });
  if (it == chains_.end()) return;  // not armed on this Simulator
  chains_.erase(it);
  chain->armed_ = false;
}

std::vector<Time> Simulator::pending_event_times(
    std::size_t max_entries) const {
  std::vector<Time> times = queue_.pending_times(max_entries);
  if (!chains_.empty()) {
    for (const ChainEntry& e : chains_) times.push_back(e.chain->at);
    std::sort(times.begin(), times.end());
    if (times.size() > max_entries) times.resize(max_entries);
  }
  return times;
}

void Simulator::run() { run_until(Time::max()); }

void Simulator::run_until(Time deadline) {
  for (;;) {
    // Pick the global minimum by (at, seq) between the engine head and
    // the back of the chain set. Seqs are minted from one per-queue
    // counter, so the pair is a strict total order and the executed
    // stream — what trace_digest() folds — is independent of whether a
    // departure runs as an engine event or a chained sub-event.
    if (engine_head_stale_) {
      if (queue_.empty()) {
        engine_key_ = kNoEngineKey;
      } else {
        const PoppedEvent head = queue_.peek();
        engine_key_ = chain_key(head.at, head.seq);
      }
      engine_head_stale_ = false;
    }
    ChainedEvent* chain = nullptr;
    ChainKey key = engine_key_;
    if (!chains_.empty() && chains_.back().key < key) {
      chain = chains_.back().chain;
      key = chains_.back().key;
    } else if (key == kNoEngineKey) {
      break;
    }
    const auto at_ns = static_cast<std::uint64_t>(key >> 64);
    const auto seq = static_cast<std::uint64_t>(key);
    const Time t = Time::nanos(static_cast<std::int64_t>(at_ns));
    if (t > deadline) break;
    if (event_budget_ != 0 &&
        events_executed_ - event_budget_base_ >= event_budget_) {
      throw SimError(
          SimErrc::kDeadlineExceeded, "Simulator",
          "event budget exhausted (" + std::to_string(event_budget_) +
              " events since armed; clock " + now_.to_string() + ", " +
              std::to_string(pending_events()) + " pending)");
    }
    assert(t >= now_);
    now_ = t;
    ++events_executed_;
    ++t_events_executed;
    trace_digest_ =
        fnv1a_u64_zero_run(fnv1a_u64_zero_run(trace_digest_, at_ns), seq);
    if (chain != nullptr) {
      // fire() may retime the chain (next packet of the burst) or
      // disarm it (queue drained / link down).
      chain->fire(chain->ctx);
    } else {
      auto cb = queue_.pop(nullptr);
      engine_head_stale_ = true;
      cb();
    }
    // Poll after the callback so events and packets it just created are
    // charged to it. pending_events() counts live engine events plus
    // armed chains — logical state, identical across the batched/scalar
    // packet paths.
    if (governor_.armed()) governor_.poll(pending_events());
    if (hook_every_ != 0 && events_executed_ % hook_every_ == 0) hook_();
  }
  if (deadline != Time::max() && now_ < deadline) now_ = deadline;
}

}  // namespace slowcc::sim
