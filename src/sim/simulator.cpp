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

// The run loop's total order: earlier fire time first, then FIFO seq.
bool earlier(Time a_at, std::uint64_t a_seq, Time b_at,
             std::uint64_t b_seq) noexcept {
  return a_at < b_at || (a_at == b_at && a_seq < b_seq);
}

bool earlier(const ChainedEvent* a, const ChainedEvent* b) noexcept {
  return earlier(a->at, a->seq, b->at, b->seq);
}

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
  // One transmit and one wire chain per link at most: the heap tops
  // out at twice the topology's link count, not at the packet count.
  chains_.push_back(chain);  // slowcc-lint: allow(no-hot-path-alloc) bounded by link count, not packet count
  chain_sift_up(chains_.size() - 1);
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

void Simulator::disarm_chain(ChainedEvent* chain) noexcept {
  const std::size_t pos = chain->heap_pos_;
  if (pos >= chains_.size() || chains_[pos] != chain) return;
  chain->heap_pos_ = ChainedEvent::kUnarmed;
  ChainedEvent* last = chains_.back();
  chains_.pop_back();
  if (last == chain) return;
  // Refill the hole with the last leaf; it may belong above or below.
  chains_[pos] = last;
  if (pos > 0 && earlier(last, chains_[(pos - 1) / 2])) {
    chain_sift_up(pos);
  } else {
    chain_sift_down(pos);
  }
}

void Simulator::chain_sift_up(std::size_t pos) noexcept {
  ChainedEvent* const moving = chains_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(moving, chains_[parent])) break;
    chains_[pos] = chains_[parent];
    chains_[pos]->heap_pos_ = pos;
    pos = parent;
  }
  chains_[pos] = moving;
  moving->heap_pos_ = pos;
}

void Simulator::chain_sift_down(std::size_t pos) noexcept {
  ChainedEvent* const moving = chains_[pos];
  const std::size_t n = chains_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(chains_[child + 1], chains_[child])) ++child;
    if (!earlier(chains_[child], moving)) break;
    chains_[pos] = chains_[child];
    chains_[pos]->heap_pos_ = pos;
    pos = child;
  }
  chains_[pos] = moving;
  moving->heap_pos_ = pos;
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
    // the root of the chain heap. Seqs are minted from one per-queue
    // counter, so the pair is a strict total order and the executed
    // stream — what trace_digest() folds — is independent of whether a
    // departure runs as an engine event or a chained sub-event.
    if (engine_head_stale_) {
      engine_live_ = !queue_.empty();
      if (engine_live_) engine_head_ = queue_.peek();
      engine_head_stale_ = false;
    }
    ChainedEvent* const chain = chains_.empty() ? nullptr : chains_.front();
    bool use_chain;
    if (engine_live_) {
      use_chain = chain != nullptr && earlier(chain->at, chain->seq,
                                              engine_head_.at,
                                              engine_head_.seq);
    } else if (chain != nullptr) {
      use_chain = true;
    } else {
      break;
    }
    const Time t = use_chain ? chain->at : engine_head_.at;
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
      // fire() may retime the chain (next packet of the burst) or
      // disarm it (queue drained / link down).
      chain->fire(chain->ctx);
    } else {
      PoppedEvent ev;
      auto cb = queue_.pop(&ev);
      engine_head_stale_ = true;
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
