#pragma once

// Chain-order oracle and workload for the drain-chain set.
//
// LinearChainSim is the run loop sim::Simulator had before armed
// ChainedEvents moved into an ordered structure (an indexed min-heap,
// then the sorted set with inline keys): every iteration peeks
// the engine head and scans every armed chain linearly for the
// (at, seq) minimum; arm searches for a duplicate, disarm searches and
// erases, and retime just rewrites the chain's fields. It drives the
// reference heap engine (heap_scheduler.hpp) and is simple enough to be
// obviously right.
//
// ChainWorkload<Sim> runs one randomized script of arms, retimes,
// disarms, engine schedules and cancels — decided by an Rng inside each
// firing — through either loop and renders the executed (at, seq)
// stream. Any divergence in execution order changes every later draw,
// so two loops agree on the log iff they executed the same stream.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "heap_scheduler.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace slowcc::test {

class LinearChainSim {
 public:
  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] std::uint64_t mint_event_seq() { return queue_.mint_seq(); }

  sim::EventId schedule_at(sim::Time at, sim::EventCallback cb) {
    if (at < now_) {
      throw sim::SimError(sim::SimErrc::kBadSchedule, "LinearChainSim",
                          "schedule_at: time in the past");
    }
    return queue_.schedule(at, std::move(cb));
  }

  void cancel(sim::EventId id) { queue_.cancel(id); }

  void arm_chain(sim::ChainedEvent* chain) {
    if (chain->at < now_ ||
        std::find(chains_.begin(), chains_.end(), chain) != chains_.end()) {
      throw sim::SimError(sim::SimErrc::kBadSchedule, "LinearChainSim",
                          "arm_chain: past or already armed");
    }
    chains_.push_back(chain);
  }

  void retime_chain(sim::ChainedEvent* chain, sim::Time at,
                    std::uint64_t seq) {
    if (at < now_ ||
        std::find(chains_.begin(), chains_.end(), chain) == chains_.end()) {
      throw sim::SimError(sim::SimErrc::kBadSchedule, "LinearChainSim",
                          "retime_chain: past or not armed");
    }
    chain->at = at;
    chain->seq = seq;
  }

  void disarm_chain(sim::ChainedEvent* chain) noexcept {
    auto it = std::find(chains_.begin(), chains_.end(), chain);
    if (it != chains_.end()) chains_.erase(it);
  }

  void run() { run_until(sim::Time::max()); }

  void run_until(sim::Time deadline) {
    for (;;) {
      sim::ChainedEvent* chain = nullptr;
      for (sim::ChainedEvent* c : chains_) {
        if (chain == nullptr || c->at < chain->at ||
            (c->at == chain->at && c->seq < chain->seq)) {
          chain = c;
        }
      }
      const bool engine_live = !queue_.empty();
      if (!engine_live && chain == nullptr) break;
      bool use_chain = true;
      sim::PoppedEvent head;
      if (engine_live) {
        head = queue_.peek();
        use_chain = chain != nullptr &&
                    (chain->at < head.at ||
                     (chain->at == head.at && chain->seq < head.seq));
      }
      if ((use_chain ? chain->at : head.at) > deadline) break;
      if (use_chain) {
        fold(chain->at, chain->seq);
        chain->fire(chain->ctx);
      } else {
        sim::PoppedEvent ev;
        auto cb = queue_.pop(&ev);
        fold(ev.at, ev.seq);
        cb();
      }
    }
    if (deadline != sim::Time::max() && now_ < deadline) now_ = deadline;
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::uint64_t trace_digest() const { return trace_digest_; }

 private:
  void fold(sim::Time at, std::uint64_t seq) {
    now_ = at;
    ++events_executed_;
    trace_digest_ = sim::fnv1a_u64(
        sim::fnv1a_u64(trace_digest_,
                       static_cast<std::uint64_t>(at.as_nanos())),
        seq);
  }

  HeapScheduler queue_;
  sim::Time now_;
  std::uint64_t events_executed_ = 0;
  std::uint64_t trace_digest_ = sim::kFnvOffsetBasis;
  std::vector<sim::ChainedEvent*> chains_;
};

template <class Sim>
class ChainWorkload {
 public:
  ChainWorkload(std::uint64_t seed, std::size_t num_chains, int budget)
      : rng_(seed), budget_(budget), chains_(num_chains), ctx_(num_chains),
        armed_(num_chains, false) {
    for (std::size_t i = 0; i < num_chains; ++i) {
      ctx_[i] = Ctx{this, i};
      chains_[i].fire = &ChainWorkload::thunk;
      chains_[i].ctx = &ctx_[i];
    }
  }

  /// Arm every chain and seed a few engine events, then run to
  /// completion in several run_until slices (so the loop also stops and
  /// resumes at deadlines) and render the executed stream.
  std::string run() {
    for (std::size_t i = 0; i < chains_.size(); ++i) {
      arm(i, delta());
    }
    for (int i = 0; i < 4; ++i) schedule(delta());
    for (int slice = 1; slice <= 8; ++slice) {
      sim_.run_until(sim::Time::nanos(slice * 200000));
      log_ << "slice " << slice << " now=" << sim_.now().as_nanos() << "\n";
    }
    sim_.run();
    log_ << "executed=" << sim_.events_executed() << " digest="
         << sim_.trace_digest() << "\n";
    return log_.str();
  }

  [[nodiscard]] std::uint64_t events_executed() const {
    return sim_.events_executed();
  }

 private:
  struct Ctx {
    ChainWorkload* self;
    std::size_t index;
  };

  static void thunk(void* ctx) {
    auto* c = static_cast<Ctx*>(ctx);
    c->self->on_chain(c->index);
  }

  // Fire-time offsets with deliberate ties: a third of draws land on
  // the current instant, many more within a few ns of it.
  sim::Time delta() {
    const double roll = rng_.uniform();
    if (roll < 0.3) return sim::Time();
    if (roll < 0.6) {
      return sim::Time::nanos(static_cast<std::int64_t>(rng_.uniform_int(4)));
    }
    const auto bits = rng_.uniform_int(20) + 1;
    return sim::Time::nanos(static_cast<std::int64_t>(
        rng_.uniform_int(std::uint64_t{1} << bits)));
  }

  void arm(std::size_t i, sim::Time d) {
    chains_[i].at = sim_.now() + d;
    chains_[i].seq = sim_.mint_event_seq();
    sim_.arm_chain(&chains_[i]);
    armed_[i] = true;
  }

  void retime(std::size_t i, sim::Time d) {
    sim_.retime_chain(&chains_[i], sim_.now() + d, sim_.mint_event_seq());
  }

  void disarm(std::size_t i) {
    sim_.disarm_chain(&chains_[i]);
    armed_[i] = false;
  }

  void schedule(sim::Time d) {
    ids_.push_back(sim_.schedule_at(sim_.now() + d, [this] { on_engine(); }));
  }

  void on_chain(std::size_t i) {
    log_ << "c" << i << " " << chains_[i].at.as_nanos() << "/"
         << chains_[i].seq << "\n";
    --budget_;
    // The firing chain always moves on: re-armed in place like the next
    // packet of a burst, or disarmed like a drained queue.
    if (budget_ > 0 && rng_.chance(0.7)) {
      retime(i, delta());
    } else {
      disarm(i);
    }
    act();
  }

  void on_engine() {
    log_ << "e " << sim_.now().as_nanos() << "\n";
    --budget_;
    // Engine events respawn (unless cancelled), so the script keeps
    // going until the budget runs out however many chains disarm.
    if (budget_ > 0) schedule(delta());
    act();
  }

  // Zero to two further actions on random chains and on the engine.
  void act() {
    if (budget_ <= 0) return;
    const auto n = rng_.uniform_int(3);
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto j = static_cast<std::size_t>(rng_.uniform_int(chains_.size()));
      const double roll = rng_.uniform();
      if (roll < 0.25) {
        if (armed_[j]) {
          retime(j, delta());  // earlier or later than its current time
        } else {
          arm(j, delta());     // possibly from inside another chain's fire
        }
      } else if (roll < 0.4) {
        disarm(j);             // anywhere in the heap; no-op if unarmed
      } else if (roll < 0.6) {
        schedule(delta());
      } else if (roll < 0.7 && !ids_.empty()) {
        sim_.cancel(ids_[rng_.uniform_int(ids_.size())]);
      }
    }
  }

  Sim sim_;
  sim::Rng rng_;
  int budget_;
  std::vector<sim::ChainedEvent> chains_;
  std::vector<Ctx> ctx_;
  std::vector<bool> armed_;
  std::vector<sim::EventId> ids_;
  std::ostringstream log_;
};

}  // namespace slowcc::test
