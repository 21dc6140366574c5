// Unit tests for the calendar-queue (timing-wheel) scheduler: the
// (time, FIFO) ordering contract, wheel wrap-around, pushing into the
// slot currently being drained, lazy bucket clearing, and the block node
// pool (pending sets across blocks, freelist reuse, copies).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/logic.hpp"
#include "sim/calendar_queue.hpp"

namespace c = lv::circuit;
using lv::sim::CalendarQueue;

namespace {

CalendarQueue::Entry entry(c::NetId net) {
  return CalendarQueue::Entry{net, c::Logic::one};
}

}  // namespace

TEST(CalendarQueue, CapacityIsPowerOfTwoPastHorizon) {
  // capacity = smallest power of two >= max_delay + 2.
  EXPECT_EQ(CalendarQueue{0}.capacity(), 2u);
  EXPECT_EQ(CalendarQueue{1}.capacity(), 4u);
  EXPECT_EQ(CalendarQueue{2}.capacity(), 4u);
  EXPECT_EQ(CalendarQueue{3}.capacity(), 8u);
  EXPECT_EQ(CalendarQueue{6}.capacity(), 8u);
  EXPECT_EQ(CalendarQueue{7}.capacity(), 16u);
}

TEST(CalendarQueue, PopsInNondecreasingTimeOrder) {
  CalendarQueue q{4};  // capacity 8
  q.push(3, entry(30));
  q.push(1, entry(10));
  q.push(2, entry(20));
  q.push(0, entry(0));
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop().net, 0u);
  EXPECT_EQ(q.time(), 0u);
  EXPECT_EQ(q.pop().net, 10u);
  EXPECT_EQ(q.time(), 1u);
  EXPECT_EQ(q.pop().net, 20u);
  EXPECT_EQ(q.pop().net, 30u);
  EXPECT_EQ(q.time(), 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTimeEntriesPopInPushOrder) {
  // The FIFO tie-break is what replaces the heap's global sequence
  // number — violating it would change ActivityStats glitch counts.
  CalendarQueue q{2};
  for (c::NetId n = 0; n < 6; ++n) q.push(1, entry(n));
  for (c::NetId n = 0; n < 6; ++n) EXPECT_EQ(q.pop().net, n);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PushIntoSlotBeingDrainedIsSeenSamePass) {
  // Zero-delay evaluation chains push at the time currently being popped;
  // cursor-based consumption must see the appended entry before moving on.
  CalendarQueue q{0};  // capacity 2
  q.push(0, entry(1));
  EXPECT_EQ(q.pop().net, 1u);
  q.push(0, entry(2));  // same slot, mid-drain
  q.push(0, entry(3));
  EXPECT_EQ(q.pop().net, 2u);
  EXPECT_EQ(q.pop().net, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, WheelWrapAroundReusesSlots) {
  // Wheel of 8 slots: t=6 lands in slot 6, t=13 in slot 5 after one
  // wrap. Ordering must survive the modular reuse and wraps() must count
  // cursor crossings of slot 0.
  CalendarQueue q{6};  // capacity 8
  q.push(6, entry(60));
  EXPECT_EQ(q.pop().net, 60u);
  EXPECT_EQ(q.time(), 6u);
  EXPECT_EQ(q.wraps(), 0u);

  q.push(13, entry(130));  // slot (13 & 7) = 5, one lap ahead
  q.push(7, entry(70));    // slot 7, still this lap
  EXPECT_EQ(q.pop().net, 70u);
  EXPECT_EQ(q.time(), 7u);
  EXPECT_EQ(q.pop().net, 130u);
  EXPECT_EQ(q.time(), 13u);
  EXPECT_EQ(q.wraps(), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, LongRunManyWraps) {
  // Sustained operation across many laps: push one entry per tick for
  // several wheel circumferences; every pop returns the right net and
  // wraps() counts laps.
  CalendarQueue q{2};  // capacity 4
  std::uint64_t t = 0;
  for (int lap = 0; lap < 64; ++lap) {
    q.push(t + 1, entry(static_cast<c::NetId>(lap)));
    EXPECT_EQ(q.pop().net, static_cast<c::NetId>(lap));
    t = q.time();
    EXPECT_EQ(t, static_cast<std::uint64_t>(lap) + 1);
  }
  // 65 ticks of cursor motion over a 4-slot wheel => 16 slot-0 crossings.
  EXPECT_EQ(q.wraps(), 16u);
}

TEST(CalendarQueue, SizeTracksPushesAndPops) {
  CalendarQueue q{3};
  EXPECT_TRUE(q.empty());
  q.push(0, entry(1));
  q.push(2, entry(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

namespace {

constexpr std::size_t kBlock = CalendarQueue::kBlockNodes;

// Pushes `count` entries over times now()..now()+3, net ids in push
// order, so (time, FIFO) order is checkable from the nets alone.
void push_spread(CalendarQueue& q, std::size_t count, c::NetId first) {
  for (std::size_t i = 0; i < count; ++i)
    q.push(q.time() + (i * 7) % 4, entry(first + static_cast<c::NetId>(i)));
}

// Pops everything, returning (time, net) in pop order.
std::vector<std::pair<std::uint64_t, c::NetId>> drain(CalendarQueue& q) {
  std::vector<std::pair<std::uint64_t, c::NetId>> out;
  while (!q.empty()) {
    const c::NetId net = q.pop().net;
    out.emplace_back(q.time(), net);
  }
  return out;
}

}  // namespace

TEST(CalendarQueue, PendingSetSpanningBlocksPopsInTimeFifoOrder) {
  // More than three pool blocks pending at once: the order contract must
  // not depend on which block a node came from.
  CalendarQueue q{4};
  const std::size_t count = 3 * kBlock + 17;
  push_spread(q, count, 0);
  EXPECT_GE(q.pool_nodes(), 3 * kBlock);
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), count);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    const auto& [t0, n0] = popped[i - 1];
    const auto& [t1, n1] = popped[i];
    ASSERT_TRUE(t0 < t1 || (t0 == t1 && n0 < n1))
        << "pop " << i << ": (" << t0 << ", " << n0 << ") then (" << t1
        << ", " << n1 << ")";
  }
}

TEST(CalendarQueue, FreelistIsReusedAcrossBlocks) {
  // Popped nodes from every block go back on one freelist; refilling to
  // the same high-water mark, in a different time pattern, allocates no
  // further block.
  CalendarQueue q{4};
  push_spread(q, 3 * kBlock + 17, 0);
  const std::size_t nodes = q.pool_nodes();
  drain(q);
  EXPECT_EQ(q.pool_nodes(), nodes);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3 * kBlock + 17; ++i)
      q.push(q.time() + (i % 2), entry(static_cast<c::NetId>(i)));
    EXPECT_EQ(drain(q).size(), 3 * kBlock + 17);
    EXPECT_EQ(q.pool_nodes(), nodes) << "round " << round;
  }
}

TEST(CalendarQueue, CopiesWithPendingEntriesPopIdentically) {
  // A source whose freelist is scrambled across blocks (pushes and pops
  // interleaved) and that holds entries in several slots: the
  // copy-constructed and the copy-assigned queue pop the same (time, net)
  // sequence, and so does the source afterwards.
  CalendarQueue source{6};
  push_spread(source, 2 * kBlock + 5, 0);
  for (int i = 0; i < 300; ++i) source.pop();
  push_spread(source, kBlock + 9, 10'000);
  for (int i = 0; i < 50; ++i) source.pop();
  ASSERT_GT(source.size(), kBlock);

  CalendarQueue constructed{source};
  CalendarQueue assigned{2};
  push_spread(assigned, kBlock, 90'000);  // stale pending state to replace
  assigned = source;
  EXPECT_EQ(constructed.size(), source.size());
  EXPECT_EQ(assigned.size(), source.size());
  EXPECT_EQ(assigned.capacity(), source.capacity());
  EXPECT_EQ(constructed.time(), source.time());
  EXPECT_EQ(assigned.wraps(), source.wraps());

  const auto want = drain(source);
  EXPECT_EQ(drain(constructed), want);
  EXPECT_EQ(drain(assigned), want);
  // The copies keep working as queues after the copy.
  for (CalendarQueue* q : {&constructed, &assigned, &source}) {
    push_spread(*q, kBlock + 3, 0);
    EXPECT_EQ(drain(*q).size(), kBlock + 3);
  }
}
