#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.hpp"

namespace fpr {

/// Reusable scratch space for the Dijkstra engine: per-node labels
/// (dist/parent/parent_edge), a dirty list that makes resets cost
/// O(nodes actually touched) instead of O(graph), an epoch counter that
/// makes target-set setup/teardown O(1), and a monotone radix heap with
/// lazy deletion as the frontier queue.
///
/// The distance array upholds one invariant between runs: every node not
/// touched by the current run holds kInfiniteWeight. begin_run() restores
/// it by rewriting only the previous run's dirty list, so the relaxation
/// test in the hot loop is a single array load (`nd < dist_[v]`) with no
/// validity branch, and a scoped run that touches 50 nodes of a 100k-node
/// graph pays for 50, not 100k. Target marks (dijkstra_within) use an
/// epoch-stamped array instead: marking and discarding the target set is
/// O(1) regardless of how many targets a caller passes. The arrays grow
/// monotonically to the largest graph seen and are never shrunk, making
/// repeated single-source runs allocation-free at steady state.
///
/// A queue entry packs (distance bits << 32 | node id) into one 128-bit
/// integer: distances are non-negative finite doubles, whose IEEE-754 bit
/// patterns order identically to their values, so a single integer
/// comparison reproduces the (dist, node) lexicographic order — smaller
/// node id first among equal distances — that the historical
/// std::priority_queue engine used. relax() pushes a new entry and leaves
/// the one it supersedes queued; pop_min() drops such stale entries (key
/// above dist_[v]) when they surface. Entries at or above the last
/// extracted key sit in the bucket of the highest bit in which they differ
/// from it; a zero-weight edge to a lower node id at the same distance
/// yields a key below it, which waits in a small min-heap that pops first.
/// pop_min() therefore returns the successive minimum of the live keys,
/// exactly the settle order of the old indexed heap, so trees stay
/// bit-identical (DESIGN.md §8).
///
/// One arena serves one thread. Use thread_local_instance() to get this
/// thread's pooled arena; that composes with the src/core/parallel pool
/// (each worker thread owns one arena for the pool's lifetime) and with
/// ad-hoc std::threads alike. Isolation is by construction (thread_local
/// storage), not by locking, so no member carries an FPR_GUARDED_BY from
/// core/annotations.hpp: an arena is never reachable from two threads.
class DijkstraArena {
 public:
  /// This thread's pooled arena.
  static DijkstraArena& thread_local_instance();

  /// Starts a new run over a graph of `node_count` nodes: grows the arrays
  /// if needed and invalidates every label from the previous run, paying
  /// only for the nodes that run actually touched.
  void begin_run(NodeId node_count);

  // ---- per-node labels (valid only when touched this run) ----

  bool touched(NodeId v) const { return dist_[static_cast<std::size_t>(v)] < kInfiniteWeight; }

  /// Current tentative distance; kInfiniteWeight when untouched — the
  /// invariant makes this an unconditional load.
  Weight dist(NodeId v) const { return dist_[static_cast<std::size_t>(v)]; }

  NodeId parent(NodeId v) const {
    return touched(v) ? origin_[static_cast<std::size_t>(v)].parent : kInvalidNode;
  }

  EdgeId parent_edge(NodeId v) const {
    return touched(v) ? origin_[static_cast<std::size_t>(v)].via : kInvalidEdge;
  }

  /// Records an improved label for v and queues its new key. Callers only
  /// invoke this after `d < dist(v)`, so `dist(v) == kInfiniteWeight`
  /// identifies the first touch.
  void relax(NodeId v, Weight d, NodeId par, EdgeId via) {
    const auto idx = static_cast<std::size_t>(v);
    if (dist_[idx] == kInfiniteWeight) dirty_.push_back(v);
    dist_[idx] = d;
    origin_[idx] = {par, via};
    const HeapEntry e = make_entry(d, v);
    if (e < last_) {
      below_.push_back(e);
      std::push_heap(below_.begin(), below_.end(), std::greater<>{});
      return;
    }
    const int b = bucket_of(e ^ last_);
    buckets_[static_cast<std::size_t>(b)].push_back(e);
    occupied_ |= HeapEntry{1} << b;
  }

  // ---- frontier queue ----

  /// Removes the live minimum (dist, node) from the queue into (u, d),
  /// dropping stale entries on the way; false once the queue is empty.
  bool pop_min(NodeId& u, Weight& d) {
    while (true) {
      HeapEntry e;
      if (!below_.empty()) {
        std::pop_heap(below_.begin(), below_.end(), std::greater<>{});
        e = below_.back();
        below_.pop_back();
      } else {
        if (occupied_ == 0) return false;
        if ((occupied_ & 1) == 0) redistribute();  // bucket 0: keys equal to last_
        e = buckets_[0].back();
        buckets_[0].pop_back();
        if (buckets_[0].empty()) occupied_ &= ~HeapEntry{1};
      }
      u = entry_node(e);
      d = entry_key(e);
      if (d == dist_[static_cast<std::size_t>(u)]) return true;
    }
  }

  // ---- pending-target bookkeeping (dijkstra_within) ----

  void mark_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = epoch_; }
  bool pending(NodeId v) const { return pending_stamp_[static_cast<std::size_t>(v)] == epoch_; }
  void clear_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = 0; }

  NodeId capacity() const { return static_cast<NodeId>(dist_.size()); }

  /// Copies this run's labels for nodes [0, node_count) into the output
  /// arrays (resized to fit; reuse keeps their capacity). dist_ already
  /// holds kInfiniteWeight for untouched nodes, so the distance column is a
  /// wholesale copy; parent columns mask untouched entries branchlessly.
  void export_labels(NodeId node_count, std::vector<Weight>& dist, std::vector<NodeId>& parent,
                     std::vector<EdgeId>& parent_edge) const;

 private:
  // (dist bits << 32) | node id. Heap keys are always finite non-negative
  // (an infinite tentative distance can never win the strict-improvement
  // test), and non-negative doubles order as their uint64 bit patterns, so
  // one unsigned comparison yields the lexicographic (dist, node) order.
  // __extension__ keeps -Wpedantic quiet about the non-ISO 128-bit type;
  // both GCC and clang honor it, and both targets guarantee __int128.
  __extension__ typedef unsigned __int128 HeapEntry;
  struct Origin {
    NodeId parent;
    EdgeId via;
  };

  static HeapEntry make_entry(Weight d, NodeId v) {
    return (static_cast<HeapEntry>(std::bit_cast<std::uint64_t>(d)) << 32) |
           static_cast<std::uint32_t>(v);
  }
  static NodeId entry_node(HeapEntry e) {
    return static_cast<NodeId>(static_cast<std::uint32_t>(e));
  }
  static Weight entry_key(HeapEntry e) {
    return std::bit_cast<Weight>(static_cast<std::uint64_t>(e >> 32));
  }

  /// 0 for x == 0, else one plus the index of x's highest set bit. Keys
  /// use bits 0..95, so buckets 0..96 suffice.
  static int bucket_of(HeapEntry x) {
    const auto hi = static_cast<std::uint64_t>(x >> 64);
    return hi != 0 ? 128 - std::countl_zero(hi)
                   : 64 - std::countl_zero(static_cast<std::uint64_t>(x));
  }
  static int lowest_bucket(HeapEntry mask) {
    const auto lo = static_cast<std::uint64_t>(mask);
    return lo != 0 ? std::countr_zero(lo)
                   : 64 + std::countr_zero(static_cast<std::uint64_t>(mask >> 64));
  }

  /// Makes the minimum of the lowest non-empty bucket the new last_ and
  /// re-buckets that bucket's entries against it; each lands strictly lower.
  void redistribute() {
    const int b = lowest_bucket(occupied_);
    std::vector<HeapEntry>& from = buckets_[static_cast<std::size_t>(b)];
    last_ = *std::min_element(from.begin(), from.end());
    occupied_ &= ~(HeapEntry{1} << b);
    for (const HeapEntry e : from) {
      const int to = bucket_of(e ^ last_);
      buckets_[static_cast<std::size_t>(to)].push_back(e);
      occupied_ |= HeapEntry{1} << to;
    }
    from.clear();
  }

  std::uint32_t epoch_ = 0;               // validates pending_stamp_ marks
  std::vector<std::uint32_t> pending_stamp_;
  std::vector<Weight> dist_;    // invariant: kInfiniteWeight unless touched
  std::vector<Origin> origin_;  // {parent, parent_edge}, written as one record
  std::vector<NodeId> dirty_;  // nodes touched by the current run
  HeapEntry last_ = 0;         // last key extracted from the buckets
  HeapEntry occupied_ = 0;     // bit b set iff buckets_[b] is non-empty
  std::array<std::vector<HeapEntry>, 97> buckets_;
  std::vector<HeapEntry> below_;  // min-heap of keys queued below last_
};

}  // namespace fpr
