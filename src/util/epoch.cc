#include "src/util/epoch.h"

#include <deque>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

namespace selest {
namespace epoch_internal {
namespace {

// Newest first. Slots are pushed and never unlinked, so a scan can walk the
// list without a lock.
constinit std::atomic<ReaderSlot*> slot_list{nullptr};
constinit std::atomic<size_t> slot_count{0};

// Gives the thread's slot back when the thread exits.
struct SlotRelease {
  ~SlotRelease() {
    if (thread_slot == nullptr) return;
    thread_slot->in_use.store(false, std::memory_order_release);
    thread_slot = nullptr;
  }
};

struct RetireList {
  std::mutex mutex;
  // Oldest first; tags increase along the list because they are drawn
  // under `mutex`.
  std::deque<std::pair<uint64_t, std::shared_ptr<const void>>> pending;
};

// Never destroyed, so a thread exiting after main cannot outlive it.
RetireList& Retired() {
  static RetireList* const list = new RetireList;
  return *list;
}

// The oldest epoch a reader has announced, or the maximum when no reader
// is inside a guard.
uint64_t OldestAnnouncedEpoch() {
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (ReaderSlot* slot = slot_list.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    const uint64_t epoch = slot->epoch.load(std::memory_order_seq_cst);
    if (epoch != 0 && epoch < oldest) oldest = epoch;
  }
  return oldest;
}

// Moves every object no announced reader can reach into `freed`. An object
// tagged t was unlinked before the epoch advanced to t, so a reader that
// announced t or later loaded the replacement.
void CollectLocked(RetireList& list,
                   std::vector<std::shared_ptr<const void>>& freed) {
  if (list.pending.empty()) return;
  const uint64_t oldest = OldestAnnouncedEpoch();
  while (!list.pending.empty() && list.pending.front().first <= oldest) {
    freed.push_back(std::move(list.pending.front().second));
    list.pending.pop_front();
  }
}

}  // namespace

ReaderSlot* AcquireSlot() {
  thread_local SlotRelease release;
  ReaderSlot* slot = nullptr;
  for (ReaderSlot* s = slot_list.load(std::memory_order_acquire);
       s != nullptr; s = s->next) {
    bool expected = false;
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acquire)) {
      slot = s;
      break;
    }
  }
  if (slot == nullptr) {
    slot = new ReaderSlot;
    slot->in_use.store(true, std::memory_order_relaxed);
    slot->index = slot_count.fetch_add(1, std::memory_order_relaxed);
    slot->next = slot_list.load(std::memory_order_relaxed);
    while (!slot_list.compare_exchange_weak(slot->next, slot,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
    }
  }
  thread_slot = slot;
  return slot;
}

}  // namespace epoch_internal

void Retire(std::shared_ptr<const void> object) {
  if (object == nullptr) return;
  epoch_internal::RetireList& list = epoch_internal::Retired();
  std::vector<std::shared_ptr<const void>> freed;
  {
    std::lock_guard<std::mutex> lock(list.mutex);
    const uint64_t tag = epoch_internal::global_epoch.fetch_add(
                             1, std::memory_order_seq_cst) +
                         1;
    list.pending.emplace_back(tag, std::move(object));
    epoch_internal::CollectLocked(list, freed);
  }
  // `freed` releases its references here, outside the lock: a freed table
  // may own whole columns.
}

void ReclaimRetired() {
  epoch_internal::RetireList& list = epoch_internal::Retired();
  std::vector<std::shared_ptr<const void>> freed;
  std::lock_guard<std::mutex> lock(list.mutex);
  epoch_internal::CollectLocked(list, freed);
}

size_t EpochReaderSlots() {
  return epoch_internal::slot_count.load(std::memory_order_relaxed);
}

size_t EpochPendingRetired() {
  epoch_internal::RetireList& list = epoch_internal::Retired();
  std::lock_guard<std::mutex> lock(list.mutex);
  return list.pending.size();
}

}  // namespace selest
