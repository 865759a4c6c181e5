#include "core/invariant_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/node.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

namespace {

/// Mirror value of an untracked slot: compares unequal to every id.
constexpr Id kNoTarget = std::numeric_limits<Id>::quiet_NaN();

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

InvariantTracker::InvariantTracker(std::size_t lrl_count)
    : lrl_count_(lrl_count) {}

// --- helpers ---------------------------------------------------------------

std::size_t InvariantTracker::rank_of(Id id) const noexcept {
  const auto pos = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  return static_cast<std::size_t>(pos - sorted_ids_.begin());
}

bool InvariantTracker::contains(Id id) const noexcept {
  const auto pos = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), id);
  return pos != sorted_ids_.end() && *pos == id;
}

bool InvariantTracker::pair_ok_for(const SmallWorldNode& node,
                                   std::size_t rank) const noexcept {
  const Id want_l = rank == 0 ? kNegInf : sorted_ids_[rank - 1];
  const Id want_r =
      rank + 1 == sorted_ids_.size() ? kPosInf : sorted_ids_[rank + 1];
  return node.l() == want_l && node.r() == want_r;
}

void InvariantTracker::reseed_pair(std::size_t rank) {
  Entry& e = entries_[slot_by_rank_[rank]];
  const bool ok = pair_ok_for(*e.node, rank);
  if (ok == e.pair_ok) return;
  e.pair_ok = ok;
  if (ok) {
    sorted_pairs_.fetch_add(1, kRelaxed);
  } else {
    sorted_pairs_.fetch_sub(1, kRelaxed);
  }
}

void InvariantTracker::strand(Id target, int delta) {
  const std::lock_guard<std::mutex> lock(stranded_mutex_);
  if (delta > 0) {
    ++stranded_[target];
    unresolved_links_.fetch_add(1, kRelaxed);
    return;
  }
  const auto it = stranded_.find(target);
  SSSW_DCHECK(it != stranded_.end());
  if (--it->second == 0) stranded_.erase(it);
  unresolved_links_.fetch_sub(1, kRelaxed);
}

// --- membership ------------------------------------------------------------

void InvariantTracker::on_add(const SmallWorldNode& node) {
  const Id id = node.id();
  const std::size_t slot = node.store_slot();
  const std::size_t rank = rank_of(id);
  SSSW_DCHECK(rank == sorted_ids_.size() || sorted_ids_[rank] != id);
  sorted_ids_.insert(sorted_ids_.begin() + static_cast<std::ptrdiff_t>(rank),
                     id);
  slot_by_rank_.insert(
      slot_by_rank_.begin() + static_cast<std::ptrdiff_t>(rank), slot);
  if (slot >= entries_.size()) {
    entries_.resize(slot + 1);
    targets_.resize((slot + 1) * lrl_count_, kNoTarget);
  }

  // Links that were stranded at this id now resolve.
  if (const auto it = stranded_.find(id); it != stranded_.end()) {
    unresolved_links_.fetch_sub(it->second, kRelaxed);
    stranded_.erase(it);
  }

  Entry& e = entries_[slot];
  SSSW_DCHECK(e.node == nullptr);
  e.node = &node;
  e.pair_ok = pair_ok_for(node, rank);
  if (e.pair_ok) sorted_pairs_.fetch_add(1, kRelaxed);
  e.forgot = node.forget_count() > 0;
  if (e.forgot) forgot_nodes_.fetch_add(1, kRelaxed);
  // A joiner's epoch baseline is 0 (the old run_until_small_world oracle
  // gave unknown nodes `before = 0`), so it is already fresh iff it has
  // ever forgotten.
  e.forget_baseline = 0;
  e.epoch_counted = e.forgot;
  if (e.epoch_counted) epoch_fresh_.fetch_add(1, kRelaxed);
  const std::span<Id> mirror = targets(slot);
  for (std::size_t k = 0; k < lrl_count_; ++k) {
    mirror[k] = node.lrls()[k].target;
    if (!contains(mirror[k])) strand(mirror[k], +1);
  }

  // Only the two rank neighbours' (l, r) expectations changed.
  if (rank > 0) reseed_pair(rank - 1);
  if (rank + 1 < sorted_ids_.size()) reseed_pair(rank + 1);
}

void InvariantTracker::on_remove(Id id) {
  const std::size_t rank = rank_of(id);
  SSSW_DCHECK(rank < sorted_ids_.size() && sorted_ids_[rank] == id);
  const std::size_t slot = slot_by_rank_[rank];
  Entry& e = entries_[slot];

  // The leaver's own links stop counting (before the erase, so a self-link
  // still reads as resolved).
  const std::span<Id> mirror = targets(slot);
  for (Id& target : mirror) {
    if (!contains(target)) strand(target, -1);
    target = kNoTarget;
  }
  if (e.pair_ok) sorted_pairs_.fetch_sub(1, kRelaxed);
  if (e.forgot) forgot_nodes_.fetch_sub(1, kRelaxed);
  if (e.epoch_counted) epoch_fresh_.fetch_sub(1, kRelaxed);
  e = Entry{};
  sorted_ids_.erase(sorted_ids_.begin() + static_cast<std::ptrdiff_t>(rank));
  slot_by_rank_.erase(slot_by_rank_.begin() +
                      static_cast<std::ptrdiff_t>(rank));

  // Survivor links that pointed at the leaver are now stranded.  Untracked
  // slots hold NaN, so one flat pass counts exactly the survivors' links.
  const auto holders =
      static_cast<std::size_t>(std::count(targets_.begin(), targets_.end(), id));
  if (holders > 0) {
    stranded_[id] += holders;
    unresolved_links_.fetch_add(holders, kRelaxed);
  }

  if (rank > 0) reseed_pair(rank - 1);
  if (rank < sorted_ids_.size()) reseed_pair(rank);
}

// --- mutation hooks --------------------------------------------------------

void InvariantTracker::on_list_changed(const SmallWorldNode& node) {
  const std::size_t rank = rank_of(node.id());
  SSSW_DCHECK(slot_by_rank_[rank] == node.store_slot());
  reseed_pair(rank);
}

void InvariantTracker::on_lrl_changed(const SmallWorldNode& node) {
  const std::span<Id> mirror = targets(node.store_slot());
  const std::span<const SmallWorldNode::LongRangeLink> links = node.lrls();
  for (std::size_t k = 0; k < lrl_count_; ++k) {
    const Id target = links[k].target;
    if (mirror[k] == target) continue;
    if (!contains(mirror[k])) strand(mirror[k], -1);
    if (!contains(target)) strand(target, +1);
    mirror[k] = target;
  }
}

void InvariantTracker::on_forget(const SmallWorldNode& node) {
  Entry& e = entries_[node.store_slot()];
  if (!e.forgot && node.forget_count() > 0) {
    e.forgot = true;
    forgot_nodes_.fetch_add(1, kRelaxed);
  }
  if (!e.epoch_counted && node.forget_count() > e.forget_baseline) {
    e.epoch_counted = true;
    epoch_fresh_.fetch_add(1, kRelaxed);
  }
}

// --- queries ---------------------------------------------------------------

bool InvariantTracker::sorted_ring() const noexcept {
  if (!sorted_list()) return false;
  if (sorted_ids_.size() < 2) return true;  // single node: trivially a ring
  const SmallWorldNode* min_node = entries_[slot_by_rank_.front()].node;
  const SmallWorldNode* max_node = entries_[slot_by_rank_.back()].node;
  return min_node->ring() == sorted_ids_.back() &&
         max_node->ring() == sorted_ids_.front();
}

void InvariantTracker::arm_forget_epoch() {
  epoch_fresh_.store(0, kRelaxed);
  for (const std::size_t slot : slot_by_rank_) {
    Entry& e = entries_[slot];
    e.forget_baseline = e.node->forget_count();
    e.epoch_counted = false;
  }
}

// --- oracle cross-check ----------------------------------------------------

void InvariantTracker::verify_against(const sim::Engine& engine) const {
  const std::span<const Id> ids = engine.id_span();
  SSSW_CHECK_MSG(ids.size() == sorted_ids_.size() &&
                     ids.size() == slot_by_rank_.size(),
                 "tracker mirror size diverged from engine");
  for (std::size_t i = 0; i < ids.size(); ++i)
    SSSW_CHECK_MSG(ids[i] == sorted_ids_[i],
                   "tracker mirror order diverged from engine");

  std::size_t pairs = 0;
  std::size_t forgot = 0;
  std::size_t fresh = 0;
  std::size_t unresolved = 0;
  std::unordered_map<Id, std::size_t> stranded;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SmallWorldNode* node = as_node(engine.find(ids[i]));
    SSSW_CHECK_MSG(node != nullptr, "tracked id is not a SmallWorldNode");
    const std::size_t slot = slot_by_rank_[i];
    SSSW_CHECK_MSG(node->store_slot() == slot, "slot_by_rank_ diverged");
    const Entry& e = entries_[slot];
    SSSW_CHECK_MSG(e.node == node, "entry caches a stale node pointer");

    const bool want_pair = pair_ok_for(*node, i);
    SSSW_CHECK_MSG(e.pair_ok == want_pair, "entry pair_ok diverged");
    if (want_pair) ++pairs;

    const bool want_forgot = node->forget_count() > 0;
    SSSW_CHECK_MSG(e.forgot == want_forgot, "entry forgot flag diverged");
    if (want_forgot) ++forgot;

    const bool want_fresh = node->forget_count() > e.forget_baseline;
    SSSW_CHECK_MSG(e.epoch_counted == want_fresh,
                   "entry epoch_counted diverged");
    if (want_fresh) ++fresh;

    SSSW_CHECK_MSG(node->lrls().size() == lrl_count_,
                   "node link count differs from the mirror stride");
    for (std::size_t k = 0; k < lrl_count_; ++k) {
      const Id target = node->lrls()[k].target;
      SSSW_CHECK_MSG(targets_[slot * lrl_count_ + k] == target,
                     "link-target mirror diverged");
      if (!engine.contains(target)) {
        ++stranded[target];
        ++unresolved;
      }
    }
  }

  // Every other slot is untracked: no entry, and a mirror no id matches.
  std::size_t tracked_slots = 0;
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    if (entries_[slot].node != nullptr) {
      ++tracked_slots;
      continue;
    }
    for (std::size_t k = 0; k < lrl_count_; ++k)
      SSSW_CHECK_MSG(std::isnan(targets_[slot * lrl_count_ + k]),
                     "untracked slot keeps a link-target mirror");
  }
  SSSW_CHECK_MSG(tracked_slots == ids.size(), "stale tracked slot");

  SSSW_CHECK_MSG(stranded == stranded_, "stranded_ counts diverged");
  SSSW_CHECK_MSG(sorted_pairs() == pairs, "sorted_pairs_ diverged");
  SSSW_CHECK_MSG(forgot_nodes() == forgot, "forgot_nodes_ diverged");
  SSSW_CHECK_MSG(epoch_fresh_.load(kRelaxed) == fresh, "epoch_fresh_ diverged");
  SSSW_CHECK_MSG(unresolved_links() == unresolved, "unresolved_links_ diverged");
}

}  // namespace sssw::core
