#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/error.hpp"
#include "sim/resource.hpp"

namespace slowcc::net {

/// Why a packet was lost (reported to drop monitors). The first three
/// come from queue admission; the last two from the link itself.
enum class DropReason : std::uint8_t {
  kOverflow,    // hard buffer limit
  kEarly,       // active queue management (RED) early drop
  kForced,      // scripted/deterministic drop injected by an experiment
  kLinkDown,    // link was (or went) down: queued and in-flight packets
  kImpairment,  // stochastic wire impairment (e.g. Gilbert-Elliott loss)
};

/// Abstract router queue discipline.
///
/// A queue buffers packets awaiting transmission on a link, in FIFO
/// order (the paper's scenarios all use FIFO scheduling; RED only
/// decides *admission*). Storage lives here in the base: a ring of
/// PacketHandles sized once to the hard packet limit at construction,
/// so steady-state enqueue/dequeue never allocates — implementations
/// contribute only the `admit` policy.
///
/// Two enqueue/dequeue surfaces share that storage:
///  * the handle API (`enqueue(PacketHandle)` / `dequeue_handle()`)
///    moves nothing — `net::Link` uses it end to end;
///  * the value API (`enqueue(Packet&&)` / `dequeue()`) round-trips
///    through the pool for callers that own packets by value (tests,
///    the differential oracle `test::ScalarLink`, standalone experiment
///    queues).
/// On rejection neither surface consumes the packet: the caller's
/// Packet (or handle) stays valid for drop observers.
class Queue {
 public:
  /// Releases any residue still charged to an attached governor — and
  /// any handles still buffered, back to the pool — so both sets of
  /// counters balance to zero even when a queue is torn down holding
  /// packets (e.g. a Simulator aborted mid-trial).
  virtual ~Queue() {
    if (governor_ != nullptr && governed_packets_ != 0) {
      governor_->note_packets_released(governed_packets_, governed_bytes_);
    }
    while (count_ != 0) pool_ref().release(take_front());
  }

  // -- value API ------------------------------------------------------

  /// Try to admit `p`. On success the queue takes ownership and returns
  /// nullopt; on failure returns the drop reason and leaves `p` intact.
  [[nodiscard]] std::optional<DropReason> enqueue(Packet&& p) {
    auto reason = admit(p);
    if (reason.has_value()) return reason;
    const std::int64_t size = p.size_bytes;
    store(pool_ref().acquire(std::move(p)), size);
    return std::nullopt;
  }

  /// Remove and return the head packet, or nullopt when empty.
  [[nodiscard]] std::optional<Packet> dequeue() {
    const PacketHandle h = dequeue_handle();
    if (!h.valid()) return std::nullopt;
    return pool_ref().take(h);
  }

  // -- handle API -----------------------------------------------------

  /// Try to admit the pooled packet behind `h` (admission may mutate
  /// it: RED marks ECN-capable packets instead of dropping). On success
  /// the queue owns the handle; on failure the caller still does — use
  /// it for the drop observers, then release it.
  [[nodiscard]] std::optional<DropReason> enqueue(PacketHandle h) {
    Packet& p = pool_ref().get(h);
    auto reason = admit(p);
    if (reason.has_value()) return reason;
    store(h, p.size_bytes);
    return std::nullopt;
  }

  /// Remove and return the head handle; invalid handle when empty.
  [[nodiscard]] PacketHandle dequeue_handle() {
    if (count_ == 0) return PacketHandle{};
    const PacketHandle h = take_front();
    const std::int64_t size = pool_ref().get(h).size_bytes;
    bytes_ -= size;
    note_removed(size);
    post_dequeue();
    return h;
  }

  [[nodiscard]] std::size_t length_packets() const noexcept { return count_; }
  [[nodiscard]] std::int64_t length_bytes() const noexcept { return bytes_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Hard buffer limit (admission policies reject beyond this).
  [[nodiscard]] std::size_t limit_packets() const noexcept { return limit_; }

  /// Buffer handles in `pool` instead of a private one. The link layer
  /// attaches its simulation's shared pool at construction so handles
  /// pass through untouched; the pool must outlive the queue (it does
  /// whenever components die before their Simulator, the ordering every
  /// scenario driver uses). Only callable while empty — handles cannot
  /// migrate between pools.
  void attach_pool(PacketPool* pool) {
    if (pool != pool_ && count_ != 0) {
      throw sim::SimError(sim::SimErrc::kBadConfig, "Queue",
                          "attach_pool: queue must be empty (buffered "
                          "handles cannot migrate between pools)");
    }
    pool_ = pool;
    if (pool_ != nullptr) owned_pool_.reset();
  }

  [[nodiscard]] PacketPool* pool() const noexcept { return pool_; }

  /// Report this queue's occupancy to `governor` (nullptr detaches).
  /// Current contents are charged on attach and any residue released on
  /// detach/destruction, so the governor's counters stay balanced
  /// across the queue's whole lifetime. `net::Link` attaches its queue
  /// to the owning Simulator's governor at construction; the governor
  /// must outlive the queue (it does whenever the Simulator is declared
  /// before the topology, the ordering every scenario driver uses).
  void attach_governor(sim::ResourceGovernor* governor) noexcept {
    if (governor_ != nullptr && governed_packets_ != 0) {
      governor_->note_packets_released(governed_packets_, governed_bytes_);
    }
    governor_ = governor;
    governed_packets_ = 0;
    governed_bytes_ = 0;
    if (governor_ != nullptr && length_packets() != 0) {
      governed_packets_ = length_packets();
      governed_bytes_ = static_cast<std::uint64_t>(length_bytes());
      governor_->note_packets_admitted(governed_packets_, governed_bytes_);
    }
  }

  [[nodiscard]] sim::ResourceGovernor* governor() const noexcept {
    return governor_;
  }

 protected:
  /// `limit_packets` is the buffer size including the packet currently
  /// being serialized; must be >= 1 (validated by implementations).
  /// The handle ring starts small and doubles toward the limit as the
  /// buffer fills, so queues configured with pathological limits (the
  /// membomb self-test uses 2^30) cost memory proportional to their
  /// actual occupancy, never their configured ceiling.
  explicit Queue(std::size_t limit_packets)
      : limit_(limit_packets),
        ring_(std::min<std::size_t>(limit_packets, kInitialRing)) {}

  /// The admission policy: nullopt admits `p` (which may be mutated —
  /// ECN marking), a reason rejects it untouched. Called exactly once
  /// per enqueue on either surface, so policies that consume randomness
  /// (RED) behave identically whichever surface the caller uses.
  [[nodiscard]] virtual std::optional<DropReason> admit(Packet& p) = 0;

  /// Invoked after each successful dequeue (RED tracks when the buffer
  /// goes idle).
  virtual void post_dequeue() {}

  /// Implementations call these at the exact points a packet enters or
  /// leaves the buffer (after the admission decision); no-ops when no
  /// governor is attached.
  void note_admitted(std::int64_t bytes) noexcept {
    if (governor_ == nullptr) return;
    ++governed_packets_;
    governed_bytes_ += static_cast<std::uint64_t>(bytes);
    governor_->note_packet_admitted(static_cast<std::uint64_t>(bytes));
  }
  void note_removed(std::int64_t bytes) noexcept {
    if (governor_ == nullptr) return;
    --governed_packets_;
    governed_bytes_ -= static_cast<std::uint64_t>(bytes);
    governor_->note_packet_removed(static_cast<std::uint64_t>(bytes));
  }

 private:
  void store(PacketHandle h, std::int64_t size_bytes) {
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) % ring_.size()] = h;
    ++count_;
    bytes_ += size_bytes;
    note_admitted(size_bytes);
  }
  void grow() {
    // Doubling toward the limit: O(log limit) growths over the queue's
    // lifetime, after which steady-state enqueue/dequeue is alloc-free.
    const std::size_t next =
        std::min(limit_, std::max<std::size_t>(ring_.size() * 2, kInitialRing));
    if (next <= ring_.size()) {
      throw sim::SimError(sim::SimErrc::kInvariantViolation, "Queue",
                          "store: buffer full past the admission limit");
    }
    // slowcc-lint: allow(no-hot-path-alloc) amortized warm-up growth,
    // bounded by the configured limit
    std::vector<PacketHandle> bigger(next);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }
  [[nodiscard]] PacketHandle take_front() noexcept {
    const PacketHandle h = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return h;
  }
  [[nodiscard]] PacketPool& pool_ref() {
    if (pool_ == nullptr) {
      // One-time lazy setup for standalone queues (tests, membomb);
      // link-owned queues get the simulation pool attached at
      // construction and never reach this branch.
      owned_pool_ = std::make_unique<PacketPool>();  // slowcc-lint: allow(no-hot-path-alloc) first-use setup, once per standalone queue
      pool_ = owned_pool_.get();
    }
    return *pool_;
  }

  // Circular FIFO of handles; doubles toward limit_ as the buffer
  // fills, then steady-state admission never grows anything.
  static constexpr std::size_t kInitialRing = 64;
  std::size_t limit_;
  std::vector<PacketHandle> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
  // Standalone queues (tests, membomb experiments) buffer into a lazily
  // created private pool; link-owned queues share the simulation's.
  std::unique_ptr<PacketPool> owned_pool_;
  PacketPool* pool_ = nullptr;
  sim::ResourceGovernor* governor_ = nullptr;
  std::uint64_t governed_packets_ = 0;
  std::uint64_t governed_bytes_ = 0;
};

}  // namespace slowcc::net
