#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace slowcc::sim {
class Simulator;
}

namespace slowcc::net {

/// Handle to a pooled Packet: slot index + generation counter, 8 bytes,
/// trivially copyable — small enough that a delivery closure capturing
/// {Link*, PacketHandle} fits std::function's inline buffer, so a link
/// schedules deliveries without touching the heap.
///
/// `valid()` means "refers to some slot" (a default-constructed handle
/// does not); whether the slot still holds the same packet is the
/// pool's call — PacketPool::is_live rejects stale generations, which
/// is what makes use-after-release (ABA reuse) detectable instead of
/// silently reading someone else's packet.
struct PacketHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  [[nodiscard]] constexpr bool valid() const noexcept {
    return slot != kInvalidSlot;
  }
  constexpr bool operator==(const PacketHandle&) const noexcept = default;
};

/// Generation-counted free-list pool of Packets (the wheel scheduler's
/// node-pool idiom applied to the packet path).
///
/// Storage is chunked — a vector of fixed 256-slot slabs — so a Packet&
/// returned by get() stays valid across any number of later acquires:
/// growth adds a chunk, it never moves existing slots. After warm-up the
/// acquire/release cycle is pure free-list pointer swaps; the heap is
/// only touched when the live high-water mark grows.
///
/// Handle invariants:
///  * release() bumps the slot generation, so every outstanding handle
///    to the old occupant goes stale; get()/take()/release() on a stale
///    handle throw SimError(kInvariantViolation) — double-free and ABA
///    bugs surface at the exact misuse site.
///  * live() counts acquired-but-unreleased packets; at simulator
///    teardown it must balance to zero (tests cross-check it against
///    the ResourceGovernor's packet counters).
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// The pool shared by every component of `sim`, created on first use
  /// and destroyed with the Simulator (via an attached guard). Keyed
  /// per thread, so concurrent sweep workers never share a pool.
  [[nodiscard]] static PacketPool& of(sim::Simulator& sim);

  /// Move `p` into a pooled slot. Grows by one chunk when the free
  /// list is empty.
  [[nodiscard]] PacketHandle acquire(Packet&& p);

  /// Access the pooled packet. Throws SimError(kInvariantViolation)
  /// when `h` is stale (released, or its slot was recycled).
  [[nodiscard]] Packet& get(PacketHandle h) {
    return live_slot(h, "get").packet;
  }
  [[nodiscard]] const Packet& get(PacketHandle h) const {
    return const_cast<PacketPool*>(this)->live_slot(h, "get").packet;
  }

  /// Move the packet out and release the slot in one step.
  [[nodiscard]] Packet take(PacketHandle h);

  /// Return the slot to the free list and bump its generation, staling
  /// every outstanding handle to it.
  void release(PacketHandle h);

  /// Whether `h` still refers to the packet it was acquired for.
  [[nodiscard]] bool is_live(PacketHandle h) const noexcept;

  /// Acquired-but-unreleased packets.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Total slots across all chunks.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * kChunkSlots;
  }

  /// Pre-grow to at least `slots` capacity (warm-up; optional).
  void reserve(std::size_t slots);

 private:
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;  // 256
  static constexpr std::uint32_t kMaxSlots = PacketHandle::kInvalidSlot - 1;

  struct Slot {
    Packet packet;
    std::uint32_t gen = 1;  // bumped on release; stale handles mismatch
    std::uint32_t next_free = PacketHandle::kInvalidSlot;
    bool live = false;
  };

  [[nodiscard]] Slot& slot_at(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t idx) const noexcept {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }
  // Inline: a forwarded packet's handle is resolved several times per
  // hop (link, wire, node, sink), so this is on every event's path.
  [[nodiscard]] Slot& live_slot(PacketHandle h, const char* op) {
    if (h.slot >= capacity()) throw_stale(h, op);
    Slot& s = slot_at(h.slot);
    if (!s.live || s.gen != h.gen) throw_stale(h, op);
    return s;
  }
  void add_chunk();
  [[noreturn]] void throw_stale(PacketHandle h, const char* op) const;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = PacketHandle::kInvalidSlot;
  std::size_t live_ = 0;
};

}  // namespace slowcc::net
