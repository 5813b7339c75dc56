#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"

namespace slowcc::sim {

/// Hierarchical timer-wheel engine.
///
/// Layout: kLevels wheels of kSlots slots each. Level L buckets events
/// by bits [kBaseShift + 8L, kBaseShift + 8(L+1)) of their absolute
/// nanosecond timestamp, so level 0 slots span 2^12 ns (~4 us) and the
/// whole hierarchy covers 2^44 ns (~4.9 h) past the dispatch horizon;
/// anything farther sits in a far-future overflow min-heap and is
/// batch-migrated into the wheels when the horizon approaches.
///
/// Dispatch keeps one invariant: every live event with timestamp below
/// `horizon_` has been moved into `due_`, a (time, seq) min-heap of
/// 24-byte POD entries. next_time()/pop() serve from `due_`; when it
/// runs dry the cursor advances slot by slot — level-0 slots drain into
/// `due_` (sorted there by the heap), higher-level slots cascade their
/// list down one level, and an empty hierarchy jumps the horizon to the
/// overflow minimum. Because `due_` is a real heap, a zero-delay event
/// scheduled *behind* the horizon from inside a callback still fires in
/// exact (at, seq) order.
///
/// Event entries live in a free-list pool indexed by uint32, so a
/// schedule/cancel/fire cycle reuses nodes instead of allocating, and
/// slot membership is a doubly-linked intrusive list: cancelling a
/// wheel-resident event unlinks and reclaims it in O(1). Events already
/// staged in `due_` or the overflow heap cannot be unlinked from the
/// middle of a heap, so cancellation tombstones them in place and the
/// pop path discards them ("slot tombstones" replacing the old engine's
/// cancelled-id hash set). EventIds pack (generation << 24 | slot + 1),
/// so stale ids from reused nodes are rejected by generation mismatch.
///
/// Contract (held against a reference binary heap by the differential
/// tests in tests/engine_diff.hpp):
///   - events fire in (at, seq) order; seq is FIFO at equal times
///   - cancel is a no-op for fired, cancelled, or stale ids
///   - next_time()/peek()/pop() throw SimError(kBadSchedule) when no
///     live event remains (an all-cancelled queue is "empty" too)
class WheelScheduler {
 public:
  using Callback = EventCallback;

  WheelScheduler();
  WheelScheduler(const WheelScheduler&) = delete;
  WheelScheduler& operator=(const WheelScheduler&) = delete;

  /// Schedule `cb` at absolute time `at`; the id cancels it.
  EventId schedule(Time at, Callback cb);

  /// Returns true when a pending event was actually cancelled.
  bool cancel(EventId id);

  /// Timestamp of the earliest live event. Non-const: the cursor may
  /// advance (the result is still observably pure).
  [[nodiscard]] Time next_time();

  /// Pop the earliest live event; `out` (optional) receives its
  /// (at, seq), which Simulator folds into its trace digest.
  [[nodiscard]] Callback pop(PoppedEvent* out);

  /// (at, seq) of the earliest live event without popping it. The run
  /// loop uses this to merge chained drain sub-events (see
  /// sim/simulator.hpp) into the (at, seq) total order.
  [[nodiscard]] PoppedEvent peek();

  /// Consume the next FIFO sequence number WITHOUT storing an event.
  /// Chain sources (net::Link batched drains) mint seqs at exactly the
  /// points the unbatched path would have called schedule(), so the
  /// executed (at, seq) stream — and every golden trace digest — is
  /// bit-identical whether a departure runs as an engine event or as a
  /// chained sub-event. Minted seqs never materialize a node, so no
  /// EventId can refer to them.
  [[nodiscard]] std::uint64_t mint_seq() noexcept { return next_seq_++; }

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Timestamps of the earliest live events, ascending, at most
  /// `max_entries`. O(n log n); meant for diagnostic dumps (Watchdog),
  /// not hot paths.
  [[nodiscard]] std::vector<Time> pending_times(std::size_t max_entries) const;

  [[nodiscard]] SchedulerStats stats() const noexcept;

 private:
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256 per level
  static constexpr int kLevels = 4;
  static constexpr int kBaseShift = 12;  // level-0 slot = 4096 ns
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kMaxNodes = (1u << 24) - 2;
  static constexpr std::size_t kInitialHeapCapacity = 1024;

  enum class Loc : std::uint8_t {
    kFree,      // on the free list
    kSlot,      // linked into a wheel slot
    kDue,       // staged in the due_ heap
    kOverflow,  // parked in the far-future heap
  };

  struct Node {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;   // bumped on reclaim; stale ids mismatch
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint16_t slot_level = 0;
    std::uint16_t slot_index = 0;
    Loc loc = Loc::kFree;
    bool cancelled = false;
    Callback cb;
  };

  /// Heap entry for due_/overflow_: POD so sift operations never move a
  /// std::function.
  struct HeapEntry {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint32_t alloc_node();
  void release_node(std::uint32_t idx);
  void link_slot(std::uint32_t idx, int level, int slot);
  void unlink_slot(std::uint32_t idx);
  /// Route a node to due_/wheel/overflow by its timestamp vs horizon_.
  void place(std::uint32_t idx);
  /// Earliest occupied slot at `level` at or after the horizon; returns
  /// false when the level is empty. `*slot` is the bucket index,
  /// `*start_ns` the absolute start of its span.
  [[nodiscard]] bool first_occupied(int level, int* slot,
                                    std::int64_t* start_ns) const;
  /// Move overflow entries with at <= `last_ns` into the wheels
  /// (inclusive, so the bound stays representable at INT64_MAX).
  /// Returns the number migrated.
  std::size_t drain_overflow_through(std::int64_t last_ns);
  /// One step of cursor progress: drain a level-0 slot into due_,
  /// cascade a higher slot down, or migrate from overflow.
  void advance();
  /// Ensure due_ is topped by a live event (or nothing is live at all).
  void settle();
  void throw_empty(const char* op) const;

  std::array<std::array<std::uint32_t, kSlots>, kLevels> slot_head_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occupied_;
  std::int64_t horizon_ = 0;
  std::vector<HeapEntry> due_;
  std::vector<HeapEntry> overflow_;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t stored_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace slowcc::sim
