// invariant_tracker.hpp — incremental convergence oracle (O(1) per round).
//
// The legal-state predicates in invariants.hpp recompute a global property
// from scratch: `is_sorted_list` walks every node, `detect_phase` adds full
// BFS passes.  Polled once per round inside `engine.run_until`, that makes
// convergence experiments pay Θ(n) (or Θ(n+m)) per round on top of the
// protocol itself.  The tracker maintains the same predicates as running
// counters so each poll is O(1):
//
//   sorted_pairs_     #nodes whose (l, r) equal their sorted-order
//                     neighbours (±∞ at the ends) — Definition 4.8 holds
//                     iff sorted_pairs_ == n.
//   ring closure      read lazily from the min and max nodes (the first and
//                     last rank), not counted — Definition 4.17.
//   forgot_nodes_     #nodes with forget_count() > 0 — the Phase-4 side
//                     condition of Thm 4.22.
//   unresolved_links_ #long-range links whose target is not a present node
//                     — `lrls_resolve`.
//
// Hook contract (enforced by the property test and verify_against):
//   * every write to a node's l_/r_ calls notify_list()  → on_list_changed
//   * every write to a link target   calls notify_lrl()   → on_lrl_changed
//   * every advance of forgets_      calls notify_forget() → on_forget
//   * membership changes go through on_add / on_remove.
// ring_ writes need no hook: only the current min and max nodes' ring()
// matter, and sorted_ring() reads them at query time.
//
// Layout.  Per-node state is dense, indexed by the node's NodeStore slot
// (every tracked node lives in the network's one shared store, so slots are
// unique), and the link targets are mirrored into one flat array of stride
// lrl_count.  sorted_ids_ mirrors the engine's sorted order, with the
// parallel slot_by_rank_ mapping a rank to its slot.  The only keyed
// structure is stranded_: link target → #links pointing at it, for targets
// that are NOT members.  It is empty in every healthy run; crashes and
// garbage initial states are what fill it.
//
// The tracker deliberately holds no engine reference.  It caches node
// pointers, which are heap-stable (the engine stores processes behind
// unique_ptr), so a SmallWorldNetwork that owns a tracker stays cheaply
// movable.
//
// The recompute path in invariants.hpp remains the *oracle*: the fuzzer's
// --paranoid mode, NetworkOptions.verify_tracker, and the property test
// cross-check every tracked answer against it, so the fast path is
// verified, not trusted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/id.hpp"

namespace sssw::sim {
class Engine;
}  // namespace sssw::sim

namespace sssw::core {

class SmallWorldNode;

class InvariantTracker {
 public:
  /// `lrl_count` is the network's links per node (Config::lrl_count): the
  /// stride of the link-target mirror.
  explicit InvariantTracker(std::size_t lrl_count);

  // --- membership (sequential context only) ------------------------------
  /// Seeds the state of a node that was just added to the engine, re-seeds
  /// its two rank neighbours, and resolves links stranded at its id.
  /// O(n − rank) for the sorted mirrors, like the engine's own insert.
  void on_add(const SmallWorldNode& node);
  /// Drops a node that just left the engine, re-seeds its former rank
  /// neighbours, and strands every survivor link to it: one sequential pass
  /// over the link mirror, O(n·k), the same order as the engine's removal.
  void on_remove(sim::Id id);

  // --- mutation hooks (called from SmallWorldNode) -----------------------
  // Safe to call concurrently for distinct nodes, which is how the sharded
  // engine runs node actions on worker lanes.  Each hook writes only the
  // acting node's slot and reads the membership mirrors, which change only
  // between phases.  The totals are relaxed atomics that move only when a
  // per-node flag flips, and integer addition commutes, so the post-barrier
  // state is identical whatever the interleaving (shard-count invariance).
  // Only a link retargeted from or to an absent id takes a mutex, to update
  // stranded_.  Membership changes and queries stay sequential-context-only.
  void on_list_changed(const SmallWorldNode& node);
  /// Compares the mirror with node.lrls() and touches only changed links.
  void on_lrl_changed(const SmallWorldNode& node);
  void on_forget(const SmallWorldNode& node);

  // --- tracked predicates (O(1)) ----------------------------------------
  /// Definition 4.8 — mirrors invariants.hpp is_sorted_list().
  bool sorted_list() const noexcept { return sorted_pairs() == size(); }
  /// Definition 4.17 — mirrors is_sorted_ring().
  bool sorted_ring() const noexcept;
  /// Mirrors lrls_resolve().
  bool lrls_resolve() const noexcept { return unresolved_links() == 0; }
  /// Phase-4 side condition: every node has forgotten at least once ever.
  bool all_forgot() const noexcept { return forgot_nodes() == size(); }

  // --- forget epoch (run_until_small_world's per-run condition) ---------
  /// Snapshots every node's forget_count as the epoch baseline (O(n), once
  /// per run).  Nodes joining later start from baseline 0.
  void arm_forget_epoch();
  /// True when every present node forgot at least once since the baseline
  /// (joiners since their join).  Trivially true for an empty network.
  bool epoch_all_forgot() const noexcept {
    return epoch_fresh_.load(std::memory_order_relaxed) == size();
  }

  // --- gauges (src/obs wiring) ------------------------------------------
  std::size_t size() const noexcept { return sorted_ids_.size(); }
  std::size_t sorted_pairs() const noexcept {
    return sorted_pairs_.load(std::memory_order_relaxed);
  }
  std::size_t forgot_nodes() const noexcept {
    return forgot_nodes_.load(std::memory_order_relaxed);
  }
  std::size_t unresolved_links() const noexcept {
    return unresolved_links_.load(std::memory_order_relaxed);
  }

  /// Oracle cross-check: recomputes every tracked quantity from the engine
  /// (including the stranded-target counts) and SSSW_CHECKs it against the
  /// incremental state.  O(n + m); used by tests, the fuzzer's --paranoid
  /// mode, and NetworkOptions.verify_tracker.
  void verify_against(const sim::Engine& engine) const;

 private:
  /// Per-slot state; node == nullptr marks a slot that is not tracked.
  struct Entry {
    const SmallWorldNode* node = nullptr;
    std::uint64_t forget_baseline = 0;
    bool pair_ok = false;        ///< (l, r) match the sorted-order neighbours
    bool forgot = false;         ///< forget_count() > 0
    bool epoch_counted = false;  ///< counted toward epoch_fresh_
  };

  std::size_t rank_of(sim::Id id) const noexcept;
  bool contains(sim::Id id) const noexcept;
  bool pair_ok_for(const SmallWorldNode& node, std::size_t rank) const noexcept;
  /// Recomputes pair_ok for the node at `rank` and folds the delta into
  /// sorted_pairs_.
  void reseed_pair(std::size_t rank);
  /// The link-target mirror of `slot` (lrl_count entries; NaN when the slot
  /// is not tracked, so no id ever matches it).
  std::span<sim::Id> targets(std::size_t slot) noexcept {
    return {targets_.data() + slot * lrl_count_, lrl_count_};
  }
  /// Adds `delta` (±1) links stranded at the non-member `target`.
  void strand(sim::Id target, int delta);

  const std::size_t lrl_count_;
  std::vector<sim::Id> sorted_ids_;         ///< mirror of the engine's order
  std::vector<std::size_t> slot_by_rank_;   ///< parallel to sorted_ids_
  std::vector<Entry> entries_;              ///< by slot
  std::vector<sim::Id> targets_;            ///< by slot, stride lrl_count_
  /// Non-member link target → #links pointing at it (no zero entries).
  std::unordered_map<sim::Id, std::size_t> stranded_;
  std::mutex stranded_mutex_;  ///< guards stranded_ inside parallel phases
  std::atomic<std::size_t> sorted_pairs_{0};
  std::atomic<std::size_t> forgot_nodes_{0};
  std::atomic<std::size_t> epoch_fresh_{0};
  std::atomic<std::size_t> unresolved_links_{0};
};

}  // namespace sssw::core
