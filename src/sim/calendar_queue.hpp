// Calendar-queue (timing-wheel) event scheduler.
//
// The event kernel's delays are small bounded integers (zero / unit /
// load-proportional ticks), so a binary-heap priority queue is overkill:
// a wheel of 2^k slots, each holding a FIFO bucket, gives O(1) push and
// amortized O(1) pop. Slot index is `time & mask`; because every pending
// time t satisfies now <= t <= now + horizon and the wheel is sized past
// the horizon (capacity >= max_delay + 2), distinct pending times can
// never collide in a slot, so no overflow list is needed.
//
// Ordering contract (what keeps ActivityStats bit-identical to the
// heap-based kernel): entries pop in strictly non-decreasing time, and
// same-time entries pop in push (FIFO) order — exactly the (time, seq)
// order the heap's global sequence-number tie-break produced, without
// storing either field. Pushing to the slot currently being drained
// (zero-delay evaluation chains) is explicitly supported: the slot is a
// linked list consumed from the head, so an appended entry is seen in
// the same pass.
//
// Node pool. Buckets are intrusive singly-linked lists drawing nodes from
// one freelist-backed pool shared by all slots. The pool is stored in
// fixed-size blocks of kBlockNodes nodes, each block holding the nodes'
// entries and links in two separate arrays, so a node costs
// sizeof(Entry) + 4 bytes with no padding between them (28 B for a word
// event, 12 B for a scalar one). Node index i lives in block
// i / kBlockNodes. Blocks are allocated one at a time as the pending
// high-water mark grows (or up front for the constructor's
// reserve_hint), left unwritten until a node is handed out, and never
// moved or reallocated, so touched memory follows that high-water mark,
// and a warmed-up queue performs no heap allocation at all (pinned by
// tests/sim_alloc_test.cpp).
//
// Copies carry the pending entries, not the pool: a copy re-links each
// slot's entries, in order, into its own nodes 0..size()-1, so it pops
// exactly what the source pops, and a copy of an empty queue owns no
// blocks (the reserve is not inherited). Copy-assignment keeps the
// target's blocks for reuse.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "circuit/logic.hpp"
#include "circuit/netlist.hpp"
#include "sim/word_logic.hpp"

namespace lv::sim {

// Generic over the event payload so the scalar kernel (one Logic per
// event) and the bit-parallel kernel (a 64-lane LogicW per event) share
// one scheduler implementation — and therefore one ordering contract.
template <class EntryT>
class WheelQueue {
 public:
  using Entry = EntryT;
  static constexpr std::uint32_t kBlockNodes = 256;

  // `max_delay` bounds push times relative to the current time: pushes
  // must satisfy time() <= t <= time() + max_delay + 1 (the +1 admits
  // the clock edge, scheduled one tick after quiescence).
  // `reserve_hint` pre-allocates blocks for that many nodes.
  explicit WheelQueue(std::uint64_t max_delay, std::size_t reserve_hint = 0) {
    std::uint64_t capacity = 2;
    while (capacity < max_delay + 2) capacity <<= 1;
    head_.assign(capacity, kNil);
    tail_.assign(capacity, kNil);
    mask_ = capacity - 1;
    while (pool_nodes() < reserve_hint) add_block();
  }

  WheelQueue(const WheelQueue& other)
      : head_(other.head_.size(), kNil),
        tail_(other.tail_.size(), kNil),
        mask_{other.mask_},
        time_{other.time_},
        wraps_{other.wraps_} {
    append_pending_of(other);
  }

  WheelQueue& operator=(const WheelQueue& other) {
    if (this == &other) return *this;
    head_.assign(other.head_.size(), kNil);
    tail_.assign(other.tail_.size(), kNil);
    mask_ = other.mask_;
    time_ = other.time_;
    wraps_ = other.wraps_;
    free_ = kNil;
    used_ = 0;
    pending_ = 0;
    append_pending_of(other);
    return *this;
  }

  WheelQueue(WheelQueue&&) noexcept = default;
  WheelQueue& operator=(WheelQueue&&) noexcept = default;

  bool empty() const { return pending_ == 0; }
  std::size_t size() const { return pending_; }

  // Time of the most recently popped entry (the simulator's "now").
  std::uint64_t time() const { return time_; }

  // Number of times the pop cursor wrapped past slot 0 (observability).
  std::uint64_t wraps() const { return wraps_; }

  std::size_t capacity() const { return head_.size(); }

  // Nodes held by the pool's blocks (a multiple of kBlockNodes).
  std::size_t pool_nodes() const { return blocks_.size() * kBlockNodes; }

  void push(std::uint64_t t, Entry e) { append(t & mask_, e); }

  // Pops the earliest entry (FIFO among same-time entries) and advances
  // time() to its timestamp. Precondition: !empty().
  Entry pop() {
    while (head_[time_ & mask_] == kNil) {
      ++time_;
      if ((time_ & mask_) == 0) ++wraps_;
    }
    const std::size_t s = time_ & mask_;
    const std::uint32_t idx = head_[s];
    Block& b = block(idx);
    const std::uint32_t k = idx & (kBlockNodes - 1);
    head_[s] = b.next[k];
    if (head_[s] == kNil) tail_[s] = kNil;
    b.next[k] = free_;
    free_ = idx;
    --pending_;
    return b.entry[k];
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  struct Block {
    Entry entry[kBlockNodes];
    std::uint32_t next[kBlockNodes];
  };
  // Blocks come from operator new and are never value-initialised:
  // their pages stay untouched until nodes are handed out.
  struct FreeBlock {
    void operator()(Block* b) const { ::operator delete(b); }
  };
  using BlockPtr = std::unique_ptr<Block, FreeBlock>;

  void add_block() {
    blocks_.emplace_back(static_cast<Block*>(::operator new(sizeof(Block))));
  }

  Block& block(std::uint32_t idx) { return *blocks_[idx / kBlockNodes]; }
  const Block& block(std::uint32_t idx) const {
    return *blocks_[idx / kBlockNodes];
  }

  void append(std::size_t s, const Entry& e) {
    std::uint32_t idx;
    if (free_ != kNil) {
      idx = free_;
      free_ = block(idx).next[idx & (kBlockNodes - 1)];
    } else {
      if (used_ == pool_nodes()) add_block();
      idx = used_++;
    }
    Block& b = block(idx);
    const std::uint32_t k = idx & (kBlockNodes - 1);
    b.entry[k] = e;
    b.next[k] = kNil;
    if (head_[s] == kNil)
      head_[s] = idx;
    else
      block(tail_[s]).next[tail_[s] & (kBlockNodes - 1)] = idx;
    tail_[s] = idx;
    ++pending_;
  }

  // Appends `other`'s pending entries slot by slot in list order.
  void append_pending_of(const WheelQueue& other) {
    for (std::size_t s = 0; s < other.head_.size(); ++s)
      for (std::uint32_t idx = other.head_[s]; idx != kNil;) {
        const Block& b = other.block(idx);
        const std::uint32_t k = idx & (kBlockNodes - 1);
        append(s, b.entry[k]);
        idx = b.next[k];
      }
  }

  std::vector<BlockPtr> blocks_;     // node pool, never moved
  std::vector<std::uint32_t> head_;  // per-slot list head (kNil = empty)
  std::vector<std::uint32_t> tail_;  // per-slot list tail
  std::uint32_t free_ = kNil;   // freelist head into the pool
  std::uint32_t used_ = 0;      // nodes ever handed out (bump index)
  std::uint64_t mask_ = 0;
  std::uint64_t time_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t wraps_ = 0;
};

// One pending value change on one net, in one lane (scalar kernel) or
// across all 64 lanes (bit-parallel kernel).
struct ScalarEvent {
  circuit::NetId net;
  circuit::Logic value;
};
struct WordEvent {
  circuit::NetId net;
  LogicW value;
};

using CalendarQueue = WheelQueue<ScalarEvent>;
using WordCalendarQueue = WheelQueue<WordEvent>;

}  // namespace lv::sim
