// Epoch-based reclamation: readers that take no lock and write no shared
// cache line, over objects that writers replace and free.
//
// A reader brackets its accesses with an EpochGuard. For the length of the
// guard it announces the current global epoch in a slot that only its own
// thread writes, and every object it reaches through a published atomic
// pointer stays alive until it leaves. A writer that unlinks an object
// (stores the replacement pointer) hands the old one to Retire, which tags
// it with a fresh epoch and frees every retired object that no announced
// reader can still reach. Writers never wait for readers: a reader that
// lingers only defers the free to a later Retire or ReclaimRetired call.
//
// Slots are one cache line each. A thread takes one on its first guard,
// gives it back when it exits, and a later thread reuses it, so the slot
// count stays at the peak number of live reader threads, with no cap.
//
// Ordering. The reader's epoch load, its announcement store and its loads
// of protected pointers are seq_cst, as are the writer's pointer store (the
// caller's), epoch advance and slot scan. Their single total order gives
// the Dekker argument without a standalone fence, which ThreadSanitizer
// does not model: either the scan sees the reader's announcement, or the
// reader's pointer load sees the replacement. A reader that announced an
// epoch older than an object's tag may still hold it; one that announced
// the tag or later cannot. The leaving store is a release, so a scan that
// reads the cleared slot also orders the reader's accesses before the free.
//
// One process-wide domain: guards and retirements of every server share it.
#ifndef SELEST_UTIL_EPOCH_H_
#define SELEST_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace selest {

namespace epoch_internal {

struct alignas(64) ReaderSlot {
  // The epoch the owner's outermost guard announced; 0 outside any guard.
  std::atomic<uint64_t> epoch{0};
  // Owner-only: how many of the owner's guards are open.
  uint32_t depth = 0;
  // Creation order; unique among live threads, kept when the slot is reused.
  size_t index = 0;
  std::atomic<bool> in_use{false};
  // Fixed once the slot is linked; slots are never freed.
  ReaderSlot* next = nullptr;
};

// Starts at 1 so that 0 can mean "not reading".
inline std::atomic<uint64_t> global_epoch{1};

// The calling thread's slot, null before its first guard. A raw pointer,
// so reaching it costs no TLS-initialisation check.
inline thread_local ReaderSlot* thread_slot = nullptr;

// Slow path of a thread's first guard: reuses a released slot or links a
// new one, and arranges for the thread's exit to release it.
ReaderSlot* AcquireSlot();

}  // namespace epoch_internal

// A read section. Nests; only the outermost guard announces and clears.
class EpochGuard {
 public:
  EpochGuard() {
    slot_ = epoch_internal::thread_slot;
    if (slot_ == nullptr) slot_ = epoch_internal::AcquireSlot();
    if (slot_->depth++ == 0) {
      slot_->epoch.store(
          epoch_internal::global_epoch.load(std::memory_order_seq_cst),
          std::memory_order_seq_cst);
    }
  }
  ~EpochGuard() {
    if (--slot_->depth == 0) slot_->epoch.store(0, std::memory_order_release);
  }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  // This thread's slot index: no other live thread has it.
  size_t reader() const { return slot_->index; }

 private:
  epoch_internal::ReaderSlot* slot_;
};

// Drops the domain's reference to `object` once no reader that could have
// reached it is left. Call it after the store that unlinked the object.
// Frees whatever else has become safe on the way; never waits.
void Retire(std::shared_ptr<const void> object);

// Frees every retired object no announced reader can still reach.
void ReclaimRetired();

// Reader slots ever created: the peak number of threads reading at once.
size_t EpochReaderSlots();

// Retired objects the domain still holds.
size_t EpochPendingRetired();

}  // namespace selest

#endif  // SELEST_UTIL_EPOCH_H_
