// node_store.hpp — struct-of-arrays storage for hot small-world node state.
//
// The per-round sweep touches every node's (l, r, ring, lrl[], forgets): with
// each node owning its own heap objects (a Config copy, a heap-allocated lrl
// vector) that sweep is a pointer chase and 10^6 nodes do not fit a sane
// footprint.  NodeStore keeps exactly that hot state in flat arrays indexed
// by a dense slot; SmallWorldNode stays the API (a thin view holding a
// store pointer + slot) so the protocol code, the invariant tracker's hooks
// and every inspection path are unchanged.
//
// Slots are recycled through a free list, so long churn histories do not
// grow the arrays without bound.  Callers never hold references into the
// arrays across an acquire() (growth may reallocate); SmallWorldNode's
// accessors re-index per call, which the optimizer folds inside one action.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/forget.hpp"
#include "sim/id.hpp"
#include "util/check.hpp"

namespace sssw::core {

/// One long-range link: the endpoint of its token's walk plus its age.
/// (Also aliased as SmallWorldNode::LongRangeLink for existing call sites.)
struct LongRangeLink {
  sim::Id target;
  Age age = 0;
};

class NodeStore {
 public:
  explicit NodeStore(const Config& config) : config_(config) {
    SSSW_CHECK_MSG(config_.lrl_count >= 1, "lrl_count must be at least 1");
  }

  const Config& config() const noexcept { return config_; }
  std::size_t lrl_count() const noexcept { return config_.lrl_count; }

  /// Allocates a slot (recycling released ones) with zeroed/neutral state;
  /// the caller initializes the protocol variables afterwards.
  std::size_t acquire() {
    if (!free_.empty()) {
      const std::size_t slot = free_.back();
      free_.pop_back();
      reset(slot);
      return slot;
    }
    const std::size_t slot = l_.size();
    l_.push_back(sim::kNegInf);
    r_.push_back(sim::kPosInf);
    ring_.push_back(0.0);
    forgets_.push_back(0);
    max_age_.push_back(0);
    lrls_.resize(lrls_.size() + config_.lrl_count);
    return slot;
  }

  void release(std::size_t slot) noexcept { free_.push_back(slot); }

  // --- hot-state accessors, by slot ------------------------------------
  sim::Id& l(std::size_t s) noexcept { return l_[s]; }
  sim::Id l(std::size_t s) const noexcept { return l_[s]; }
  sim::Id& r(std::size_t s) noexcept { return r_[s]; }
  sim::Id r(std::size_t s) const noexcept { return r_[s]; }
  sim::Id& ring(std::size_t s) noexcept { return ring_[s]; }
  sim::Id ring(std::size_t s) const noexcept { return ring_[s]; }
  std::uint64_t& forgets(std::size_t s) noexcept { return forgets_[s]; }
  std::uint64_t forgets(std::size_t s) const noexcept { return forgets_[s]; }
  Age& max_age(std::size_t s) noexcept { return max_age_[s]; }
  Age max_age(std::size_t s) const noexcept { return max_age_[s]; }
  std::span<LongRangeLink> lrls(std::size_t s) noexcept {
    return {lrls_.data() + s * config_.lrl_count, config_.lrl_count};
  }
  std::span<const LongRangeLink> lrls(std::size_t s) const noexcept {
    return {lrls_.data() + s * config_.lrl_count, config_.lrl_count};
  }

 private:
  void reset(std::size_t slot) noexcept {
    l_[slot] = sim::kNegInf;
    r_[slot] = sim::kPosInf;
    ring_[slot] = 0.0;
    forgets_[slot] = 0;
    max_age_[slot] = 0;
    for (LongRangeLink& link : lrls(slot)) link = LongRangeLink{0.0};
  }

  const Config config_;
  std::vector<sim::Id> l_;
  std::vector<sim::Id> r_;
  std::vector<sim::Id> ring_;
  std::vector<LongRangeLink> lrls_;  // strided: slot s owns [s*k, (s+1)*k)
  std::vector<std::uint64_t> forgets_;
  std::vector<Age> max_age_;
  std::vector<std::size_t> free_;
};

}  // namespace sssw::core
