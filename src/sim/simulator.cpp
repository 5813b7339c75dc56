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
  return queue_.schedule(at, std::move(cb));
}

EventId Simulator::schedule_in(Time delay, EventCallback cb) {
  if (delay.is_negative()) {
    throw SimError(SimErrc::kBadSchedule, "Simulator",
                   "schedule_in: negative delay");
  }
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
  for (const ChainedEvent* c : chains_) {
    if (c == chain) {
      throw SimError(SimErrc::kBadSchedule, "Simulator",
                     "arm_chain: chain already armed (re-arm in place by "
                     "updating at/seq instead)");
    }
  }
  // One chain per link, armed when its transmitter goes busy: the
  // vector tops out at the topology's link count, not packet count.
  chains_.push_back(chain);  // slowcc-lint: allow(no-hot-path-alloc) bounded by link count, not packet count
}

void Simulator::disarm_chain(const ChainedEvent* chain) noexcept {
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i] == chain) {
      chains_.erase(chains_.begin() +
                    static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

std::vector<Time> Simulator::pending_event_times(
    std::size_t max_entries) const {
  std::vector<Time> times = queue_.pending_times(max_entries);
  if (!chains_.empty()) {
    for (const ChainedEvent* c : chains_) times.push_back(c->at);
    std::sort(times.begin(), times.end());
    if (times.size() > max_entries) times.resize(max_entries);
  }
  return times;
}

void Simulator::run() { run_until(Time::max()); }

void Simulator::run_until(Time deadline) {
  for (;;) {
    // Pick the global minimum by (at, seq) between the engine head and
    // any armed drain chains. Seqs are minted from one per-queue
    // counter, so the pair is a strict total order and the executed
    // stream — what trace_digest() folds — is independent of whether a
    // departure runs as an engine event or a chained sub-event.
    ChainedEvent* chain = nullptr;
    for (ChainedEvent* c : chains_) {
      if (chain == nullptr || c->at < chain->at ||
          (c->at == chain->at && c->seq < chain->seq)) {
        chain = c;
      }
    }
    const bool engine_live = !queue_.empty();
    if (!engine_live && chain == nullptr) break;
    bool use_chain;
    PoppedEvent head;
    if (engine_live) {
      head = queue_.peek();
      use_chain = chain != nullptr &&
                  (chain->at < head.at ||
                   (chain->at == head.at && chain->seq < head.seq));
    } else {
      use_chain = true;
    }
    const Time t = use_chain ? chain->at : head.at;
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
    if (use_chain) {
      now_ = chain->at;
      ++events_executed_;
      ++t_events_executed;
      trace_digest_ =
          fnv1a_u64(fnv1a_u64(trace_digest_,
                              static_cast<std::uint64_t>(chain->at.as_nanos())),
                    chain->seq);
      // fire() may re-arm the chain in place (next packet of the burst)
      // or disarm it (queue drained / link down).
      chain->fire(chain->ctx);
    } else {
      PoppedEvent ev;
      auto cb = queue_.pop(&ev);
      now_ = ev.at;
      ++events_executed_;
      ++t_events_executed;
      trace_digest_ =
          fnv1a_u64(fnv1a_u64(trace_digest_,
                              static_cast<std::uint64_t>(ev.at.as_nanos())),
                    ev.seq);
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
