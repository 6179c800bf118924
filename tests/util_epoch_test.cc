// The epoch domain on its own (util/epoch.h): a retired object outlives
// every guard that could have reached it and no other, a publisher never
// waits for a reader, and guards nest. The live server's use of it is
// covered by server_epoch_concurrency_test.
#include <atomic>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/util/epoch.h"

namespace selest {
namespace {

TEST(EpochTest, RetiredObjectIsFreedAtOnceWithoutReaders) {
  auto object = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = object;
  Retire(std::move(object));
  EXPECT_TRUE(watch.expired());
}

TEST(EpochTest, ExternalOwnerKeepsARetiredObject) {
  auto held = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = held;
  Retire(held);
  ReclaimRetired();
  // The domain dropped its reference; the holder's keeps the object.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(*held, 7);
  held.reset();
  EXPECT_TRUE(watch.expired());
}

// A reader parked inside its guard blocks neither Retire nor the reclaim
// that follows; what was retired meanwhile survives until the guard closes
// and the next reclaim runs.
TEST(EpochTest, HeldGuardDefersTheFreeButNeverBlocksThePublisher) {
  std::atomic<bool> inside{false};
  std::atomic<bool> leave{false};
  std::thread reader([&]() {
    const EpochGuard guard;
    inside.store(true);
    while (!leave.load()) std::this_thread::yield();
  });
  while (!inside.load()) std::this_thread::yield();

  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  const std::weak_ptr<int> first_watch = first;
  const std::weak_ptr<int> second_watch = second;
  Retire(std::move(first));  // returns although the reader is inside
  Retire(std::move(second));
  ReclaimRetired();
  EXPECT_FALSE(first_watch.expired());
  EXPECT_FALSE(second_watch.expired());
  EXPECT_GE(EpochPendingRetired(), 2u);

  leave.store(true);
  reader.join();
  ReclaimRetired();
  EXPECT_TRUE(first_watch.expired());
  EXPECT_TRUE(second_watch.expired());
  EXPECT_EQ(EpochPendingRetired(), 0u);
}

// A guard opened after the retirement cannot reach the object, so it does
// not hold the free back.
TEST(EpochTest, GuardOpenedAfterRetireDoesNotDeferTheFree) {
  std::atomic<bool> inside{false};
  std::atomic<bool> leave{false};
  auto object = std::make_shared<int>(3);
  const std::weak_ptr<int> watch = object;
  {
    const EpochGuard early;  // announces the epoch before the retirement
    Retire(std::move(object));
    EXPECT_FALSE(watch.expired());
  }
  std::thread reader([&]() {
    const EpochGuard late;
    inside.store(true);
    while (!leave.load()) std::this_thread::yield();
  });
  while (!inside.load()) std::this_thread::yield();
  ReclaimRetired();
  EXPECT_TRUE(watch.expired());
  leave.store(true);
  reader.join();
}

TEST(EpochTest, NestedGuardsAnnounceOnceAndShareTheSlot) {
  auto object = std::make_shared<int>(4);
  const std::weak_ptr<int> watch = object;
  {
    const EpochGuard outer;
    {
      const EpochGuard inner;
      EXPECT_EQ(inner.reader(), outer.reader());
      Retire(std::move(object));
    }
    // The inner guard closing must not end the outer read section.
    ReclaimRetired();
    EXPECT_FALSE(watch.expired());
  }
  ReclaimRetired();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace selest
