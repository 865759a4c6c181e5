#include "topology/initial_states.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace sssw::topology {

using core::NodeInit;
using sim::Id;
using sim::kNegInf;
using sim::kPosInf;

const char* to_string(InitialShape shape) noexcept {
  switch (shape) {
    case InitialShape::kSortedRing:
      return "sorted-ring";
    case InitialShape::kSortedList:
      return "sorted-list";
    case InitialShape::kRandomChain:
      return "random-chain";
    case InitialShape::kStar:
      return "star";
    case InitialShape::kRandomTree:
      return "random-tree";
    case InitialShape::kLongJumpChain:
      return "long-jump-chain";
    case InitialShape::kBridgedChains:
      return "bridged-chains";
    case InitialShape::kScrambledLrl:
      return "scrambled-lrl";
  }
  return "unknown";
}

std::optional<InitialShape> shape_from_string(std::string_view name) noexcept {
  for (const InitialShape shape : kAllShapes)
    if (name == to_string(shape)) return shape;
  return std::nullopt;
}

namespace {

/// Stores a directed link from → to in the only slot that can hold it
/// (l if to < from, r if to > from).  Keeps the nearer endpoint if the slot
/// is already occupied — this only tightens connectivity.
void store_link(NodeInit& from, Id to) {
  if (to < from.id) {
    if (from.l == kNegInf || to > from.l) from.l = to;
  } else if (to > from.id) {
    if (from.r == kPosInf || to < from.r) from.r = to;
  }
}

}  // namespace

std::vector<NodeInit> make_initial_state(InitialShape shape, std::vector<Id> ids,
                                         util::Rng& rng,
                                         const InitialStateOptions& options) {
  std::sort(ids.begin(), ids.end());
  const std::size_t n = ids.size();
  std::vector<NodeInit> inits;
  inits.reserve(n);
  for (const Id id : ids) inits.emplace_back(id);

  switch (shape) {
    case InitialShape::kSortedRing: {
      for (std::size_t i = 0; i < n; ++i) {
        inits[i].l = i == 0 ? kNegInf : ids[i - 1];
        inits[i].r = i + 1 == n ? kPosInf : ids[i + 1];
      }
      if (n >= 2) {
        inits.front().ring = ids.back();
        inits.back().ring = ids.front();
      }
      break;
    }
    case InitialShape::kSortedList: {
      for (std::size_t i = 0; i < n; ++i) {
        inits[i].l = i == 0 ? kNegInf : ids[i - 1];
        inits[i].r = i + 1 == n ? kPosInf : ids[i + 1];
      }
      break;
    }
    case InitialShape::kRandomChain: {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      util::shuffle(order, rng);
      for (std::size_t k = 0; k + 1 < n; ++k)
        store_link(inits[order[k]], ids[order[k + 1]]);
      break;
    }
    case InitialShape::kStar: {
      if (n >= 2) {
        const std::size_t hub = rng.below(n);
        for (std::size_t i = 0; i < n; ++i)
          if (i != hub) store_link(inits[i], ids[hub]);
      }
      break;
    }
    case InitialShape::kRandomTree: {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      util::shuffle(order, rng);
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t parent = order[rng.below(k)];
        store_link(inits[order[k]], ids[parent]);
      }
      break;
    }
    case InitialShape::kLongJumpChain: {
      const std::size_t jump = std::max<std::size_t>(1, n / 4);
      for (std::size_t i = 0; i < n; ++i) {
        if (i + jump < n) {
          store_link(inits[i], ids[i + jump]);
        } else if (i + 1 < n) {
          store_link(inits[i], ids[i + 1]);  // stitch the strand tails together
        }
      }
      break;
    }
    case InitialShape::kBridgedChains: {
      const std::size_t half = n / 2;
      for (std::size_t i = 0; i + 1 < half; ++i) store_link(inits[i], ids[i + 1]);
      for (std::size_t i = half; i + 1 < n; ++i) store_link(inits[i], ids[i + 1]);
      if (half > 0 && half < n) {
        // One long-range link bridges the two chains; probing must detect
        // that this is the only connection and materialise list edges.
        inits[rng.below(half)].lrl = ids[half + rng.below(n - half)];
      }
      break;
    }
    case InitialShape::kScrambledLrl: {
      for (std::size_t i = 0; i < n; ++i) {
        inits[i].l = i == 0 ? kNegInf : ids[i - 1];
        inits[i].r = i + 1 == n ? kPosInf : ids[i + 1];
        inits[i].lrl = ids[rng.below(n)];
      }
      if (n >= 2) {
        inits.front().ring = ids.back();
        inits.back().ring = ids.front();
      }
      break;
    }
  }

  if (options.randomize_lrl && shape != InitialShape::kScrambledLrl &&
      shape != InitialShape::kBridgedChains && n > 0) {
    for (NodeInit& init : inits) init.lrl = ids[rng.below(n)];
  }
  return inits;
}

}  // namespace sssw::topology
