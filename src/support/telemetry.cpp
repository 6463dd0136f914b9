#include "src/support/telemetry.h"

#include <chrono>

namespace zeus::telemetry {

namespace {

// Slots are never freed and these globals are constant-initialized with
// trivial destructors, so late writers (thread exits, static destructors)
// and LeakSanitizer's post-exit scan always find them intact.
std::atomic<Slot*> g_head{nullptr};
std::mutex g_mutex;  ///< guards everything below: claim and release only
Slot* g_tail = nullptr;
Slot* g_free = nullptr;
uint32_t g_slots = 0;

Slot* claim() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (Slot* s = g_free) {
    g_free = s->nextFree;
    return s;
  }
  auto* s = new Slot;
  s->tid = ++g_slots;
  // The links are seq_cst so a Stream::clear() that bumped its generation
  // before walking past this slot is seen by the slot's first append.
  if (g_tail) {
    g_tail->next.store(s);
  } else {
    g_head.store(s);
  }
  g_tail = s;
  return s;
}

void release(Slot* s) {
  std::lock_guard<std::mutex> lock(g_mutex);
  s->nextFree = g_free;
  g_free = s;
}

/// The thread's claim: taken on first use, returned to the free list
/// when the thread exits.
struct Claim {
  Claim() : slot(claim()) {}
  ~Claim() { release(slot); }
  Claim(const Claim&) = delete;
  Claim& operator=(const Claim&) = delete;
  Slot* const slot;
};

}  // namespace

Slot& localSlot() {
  thread_local Claim own;
  return *own.slot;
}

Slot* firstSlot() { return g_head.load(); }

size_t slotCount() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_slots;
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace zeus::telemetry
