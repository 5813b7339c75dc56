#include "heap_scheduler.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace slowcc::test {

namespace {
// Compaction threshold: never bother below this many tombstones, so
// small queues keep the original one-hash-lookup-per-pop behavior.
constexpr std::size_t kCompactFloor = 64;
}  // namespace

EventId HeapScheduler::schedule(Time at, Callback cb) {
  const std::uint64_t seq = next_seq_++;
  // Growth below is amortized against the kInitialCapacity reservation
  // made at construction; steady-state schedule/pop recycles capacity.
  heap_.push_back(Entry{at, seq, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  pending_.insert(seq);
  ++live_;
  return sim::EventIdCodec::mint(seq);
}

bool HeapScheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  // Cancelling an event that already fired (or was already cancelled)
  // is a no-op; only pending events affect the bookkeeping.
  if (pending_.erase(sim::EventIdCodec::decode(id)) == 0) return false;
  cancelled_.insert(sim::EventIdCodec::decode(id));
  --live_;
  // Tombstones outnumbering live entries means a cancel-heavy workload
  // (retransmit timers rearmed every packet); sweep them in one pass so
  // neither the heap nor the hash set grows without bound.
  if (cancelled_.size() > kCompactFloor && cancelled_.size() > live_) {
    compact();
  }
  return true;
}

void HeapScheduler::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) {
                               return cancelled_.find(e.seq) !=
                                      cancelled_.end();
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_.clear();
}

void HeapScheduler::purge_cancelled() {
  while (!heap_.empty()) {
    auto it = cancelled_.find(heap_.front().seq);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void HeapScheduler::throw_empty(const char* op) const {
  throw sim::SimError(sim::SimErrc::kBadSchedule, "EventQueue",
                      std::string(op) +
                          " on a queue with no live events (empty or "
                          "all-cancelled)");
}

std::vector<Time> HeapScheduler::pending_times(std::size_t max_entries) const {
  std::vector<Time> times;
  times.reserve(live_);
  for (const Entry& e : heap_) {
    if (cancelled_.find(e.seq) == cancelled_.end()) times.push_back(e.at);
  }
  std::sort(times.begin(), times.end());
  if (times.size() > max_entries) times.resize(max_entries);
  return times;
}

SchedulerStats HeapScheduler::stats() const noexcept {
  return SchedulerStats{heap_.size(), cancelled_.size(), heap_.capacity()};
}

Time HeapScheduler::next_time() {
  purge_cancelled();
  if (heap_.empty()) throw_empty("next_time");
  return heap_.front().at;
}

PoppedEvent HeapScheduler::peek() {
  purge_cancelled();
  if (heap_.empty()) throw_empty("peek");
  return PoppedEvent{heap_.front().at, heap_.front().seq};
}

HeapScheduler::Callback HeapScheduler::pop(PoppedEvent* out) {
  purge_cancelled();
  if (heap_.empty()) throw_empty("pop");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  pending_.erase(e.seq);
  --live_;
  if (out != nullptr) *out = PoppedEvent{e.at, e.seq};
  return std::move(e.cb);
}

}  // namespace slowcc::test
