#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/scheduler.hpp"

namespace slowcc::test {

using sim::EventId;
using sim::PoppedEvent;
using sim::SchedulerStats;
using sim::Time;

/// Reference engine for the differential tests (engine_diff.hpp) and
/// the heap rows of bench/micro_engine: a binary heap of (time, seq)
/// entries with lazy cancellation, exposing the same API as the
/// production sim::WheelScheduler. Cancelled ids are remembered in a
/// hash set and their heap entries discarded when they reach the front;
/// when tombstones outnumber live entries the heap is compacted in one
/// pass, so a cancel-heavy run cannot grow `cancelled_` without bound.
/// Simple enough to be obviously right, which is the point of an
/// oracle.
class HeapScheduler {
 public:
  using Callback = sim::EventCallback;

  /// Reserves working capacity up front so the per-event schedule/pop
  /// cycle only allocates when a run outgrows the reservation (growth
  /// past it is geometric, amortized O(1) per event).
  HeapScheduler() {
    heap_.reserve(kInitialCapacity);
    pending_.reserve(kInitialCapacity);
    cancelled_.reserve(kInitialCapacity);
  }

  HeapScheduler(const HeapScheduler&) = delete;
  HeapScheduler& operator=(const HeapScheduler&) = delete;

  EventId schedule(Time at, Callback cb);
  bool cancel(EventId id);
  [[nodiscard]] Time next_time();
  [[nodiscard]] Callback pop(PoppedEvent* out);
  [[nodiscard]] PoppedEvent peek();
  // Minted seqs are never inserted into pending_, so a cancel() against
  // one is the usual stale-id no-op.
  [[nodiscard]] std::uint64_t mint_seq() noexcept { return next_seq_++; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::vector<Time> pending_times(std::size_t max_entries) const;
  [[nodiscard]] SchedulerStats stats() const noexcept;

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  struct Entry {
    Time at;
    std::uint64_t seq;  // doubles as the event id
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void purge_cancelled();
  void compact();
  void throw_empty(const char* op) const;

  std::vector<Entry> heap_;
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace slowcc::test
