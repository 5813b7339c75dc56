#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/time.hpp"

namespace slowcc::sim {

// The public callback type IS the API boundary the hot-path rule carves
// out; the engine pools the POD *entries* around it.
// slowcc-lint: allow(no-std-function-hot-path) API-boundary callback type
using EventCallback = std::function<void()>;

/// Opaque handle to a scheduled event, used for cancellation. The raw
/// encoding is engine-specific (the timer wheel packs a pool slot and a
/// generation counter), so ids must never be compared across queues.
class EventId {
 public:
  constexpr EventId() noexcept : id_(0) {}
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0; }
  constexpr bool operator==(const EventId&) const noexcept = default;

 private:
  friend struct EventIdCodec;
  explicit constexpr EventId(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_;
};

/// The one seam through which an engine mints and decodes raw ids: the
/// production WheelScheduler and the reference heap engine the tests
/// compare it against. Everyone else treats EventId as opaque.
struct EventIdCodec {
  [[nodiscard]] static constexpr EventId mint(std::uint64_t raw) noexcept {
    return EventId(raw);
  }
  [[nodiscard]] static constexpr std::uint64_t decode(EventId id) noexcept {
    return id.id_;
  }
};

/// Timestamp + FIFO sequence number of a popped event. `seq` is
/// assigned at schedule() time (1, 2, 3, ... per queue) and breaks ties
/// among equal timestamps, so the executed (at, seq) stream is the
/// observable the golden-trace digests pin.
struct PoppedEvent {
  Time at;
  std::uint64_t seq = 0;
};

/// Size diagnostics for tests and capacity monitoring.
struct SchedulerStats {
  std::size_t stored = 0;      // entries held, live + tombstoned
  std::size_t tombstones = 0;  // cancelled entries not yet reclaimed
  std::size_t capacity = 0;    // backing allocation, in entries
};

/// FNV-1a (64-bit) folding of one value into a running hash, byte-wise
/// little-endian. Used by Simulator::trace_digest() and the golden-trace
/// tests; kept here so tools can reproduce digests bit-for-bit.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t hash,
                                                std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kFnvPrime;
  }
  return hash;
}

/// kFnvPrime^k mod 2^64.
[[nodiscard]] constexpr std::uint64_t fnv_prime_pow(int k) noexcept {
  std::uint64_t p = 1;
  for (int i = 0; i < k; ++i) p *= kFnvPrime;
  return p;
}

/// fnv1a_u64 with the high zero bytes folded in one step: FNV-1a folds
/// a zero byte as a bare `hash *= kFnvPrime`, so a run of k zero bytes
/// is one multiply by kFnvPrime^k. Bit-identical to fnv1a_u64 for every
/// (hash, value). The run loop folds every executed (at, seq) through
/// this: fire times below 2^40 ns (~18 minutes) take the 5-byte tier
/// and seqs below 2^24 the 3-byte tier, 10 serial multiplies per event
/// instead of 16; larger values take the full byte loop.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64_zero_run(
    std::uint64_t hash, std::uint64_t value) noexcept {
  constexpr std::uint64_t kPow3 = fnv_prime_pow(3);
  constexpr std::uint64_t kPow5 = fnv_prime_pow(5);
  if (value < (std::uint64_t{1} << 24)) {
    for (int i = 0; i < 3; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= kFnvPrime;
    }
    return hash * kPow5;
  }
  if (value < (std::uint64_t{1} << 40)) {
    for (int i = 0; i < 5; ++i) {
      hash ^= (value >> (8 * i)) & 0xffULL;
      hash *= kFnvPrime;
    }
    return hash * kPow3;
  }
  return fnv1a_u64(hash, value);
}

}  // namespace slowcc::sim
