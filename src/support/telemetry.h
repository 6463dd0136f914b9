// The per-thread telemetry substrate behind trace spans, the zeus-log-v1
// event log, the flight recorder's open-span stacks and metrics::Counter
// (internal to src/support; the concurrency contract is written out in
// docs/observability.md, "Thread safety").
//
// Each thread that records anything claims one Slot through a single
// thread-local claim.  On thread exit the slot goes onto a free list and
// the next new thread reuses it — records and counter cells included, so
// nothing an exited thread recorded is lost and the number of slots
// stays bounded by the peak number of threads alive at once.  Slots live on an
// append-only list linked by atomic `next` pointers and are never freed:
// readers and the crash handler walk it without the registry lock.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/trace.h"

namespace zeus::telemetry {

/// Named counters per slot; counter ids index the cell array directly
/// (the metrics::Counter constructor asserts the cap).
constexpr size_t kMaxCounters = 256;
/// Open spans per slot the crash dump can name; deeper ones are counted.
constexpr size_t kMaxSpanDepth = 16;

/// One serialized zeus-log-v1 line, timestamped for the cross-thread merge.
struct LogLine {
  uint64_t tsUs;
  std::string text;
};

struct Slot {
  uint32_t tid = 0;  ///< 1-based, fixed for the slot's life
  std::mutex mutex;  ///< guards events and lines
  std::vector<trace::Event> events;
  std::vector<LogLine> lines;
  std::array<std::atomic<uint64_t>, kMaxCounters> cells{};
  /// Open-span stack: written only by the owning thread, read lock-free
  /// by the crash handler.  depth counts past kMaxSpanDepth so pops
  /// balance; readers clamp.
  std::atomic<uint32_t> depth{0};
  std::array<std::atomic<const char*>, kMaxSpanDepth> names{};
  std::array<std::atomic<const char*>, kMaxSpanDepth> cats{};
  std::atomic<Slot*> next{nullptr};  ///< append-only list of all slots
  Slot* nextFree = nullptr;          ///< free list (registry lock)
};

/// The calling thread's slot, claimed on first use.
Slot& localSlot();
/// Head of the slot list, oldest slot first.  Async-signal-safe.
Slot* firstSlot();
/// Slots ever created (live plus free).
size_t slotCount();
/// Monotonic microseconds, the timestamp of every span and log line.
uint64_t nowUs();

template <class F>
void forEachSlot(F f) {
  for (Slot* s = firstSlot(); s; s = s->next.load()) f(*s);
}

/// One recorded stream of per-slot records (trace spans or log lines)
/// with its own enable flag and generation stamp.  clear() and
/// setEnabled(false) bump the generation; a writer captures it before
/// building its record and append() re-checks it under the slot mutex,
/// so a record that straddles either call is dropped instead of landing
/// in a buffer the caller believes is empty.
template <class Rec, std::vector<Rec> Slot::*Records>
class Stream {
 public:
  void setEnabled(bool on) {
    if (!on) epoch_.fetch_add(1, std::memory_order_seq_cst);
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Records held in `slot`.
  [[nodiscard]] size_t size(Slot& slot) const {
    std::lock_guard<std::mutex> lock(slot.mutex);
    return (slot.*Records).size();
  }

  /// Adds `rec` to `slot` at position `at` (default and clamp: the end).
  void append(Slot& slot, uint64_t epoch, Rec rec, size_t at = SIZE_MAX) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (epoch_.load(std::memory_order_seq_cst) != epoch) return;
    std::vector<Rec>& v = slot.*Records;
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(std::min(at, v.size())),
             std::move(rec));
  }

  void clear() {
    // Bump FIRST: a writer that captured the old generation either
    // appends before its slot is cleared below or re-checks after.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    forEachSlot([](Slot& s) {
      std::lock_guard<std::mutex> lock(s.mutex);
      (s.*Records).clear();
    });
  }

  [[nodiscard]] size_t count() const {
    size_t n = 0;
    forEachSlot([this, &n](Slot& s) { n += size(s); });
    return n;
  }

  /// Every slot's records, merged and stably sorted by `less`: ties keep
  /// each slot's order, slots in tid order.
  template <class Less>
  [[nodiscard]] std::vector<Rec> collect(Less less) const {
    std::vector<Rec> all;
    forEachSlot([&all](Slot& s) {
      std::lock_guard<std::mutex> lock(s.mutex);
      all.insert(all.end(), (s.*Records).begin(), (s.*Records).end());
    });
    std::stable_sort(all.begin(), all.end(), less);
    return all;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{1};
};

}  // namespace zeus::telemetry
