// Tests for topology/initial_states: every generated shape must be a legal,
// weakly connected starting configuration (the precondition of Thm 4.3).
#include "topology/initial_states.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "core/network.hpp"
#include "core/views.hpp"
#include "graph/traversal.hpp"

namespace sssw::topology {
namespace {

using core::NodeInit;
using sim::kNegInf;
using sim::kPosInf;

class ShapeTest : public ::testing::TestWithParam<std::tuple<InitialShape, int, int>> {
 protected:
  InitialShape shape() const { return std::get<0>(GetParam()); }
  std::size_t n() const { return static_cast<std::size_t>(std::get<1>(GetParam())); }
  std::uint64_t seed() const { return static_cast<std::uint64_t>(std::get<2>(GetParam())); }

  std::vector<NodeInit> generate(const InitialStateOptions& options = {}) {
    util::Rng rng(seed());
    auto ids = core::random_ids(n(), rng);
    return make_initial_state(shape(), std::move(ids), rng, options);
  }
};

TEST_P(ShapeTest, VariablesRespectOrdering) {
  for (const NodeInit& init : generate()) {
    EXPECT_TRUE(init.l == kNegInf || init.l < init.id);
    EXPECT_TRUE(init.r == kPosInf || init.r > init.id);
    EXPECT_TRUE(sim::is_node_id(init.lrl));
    EXPECT_TRUE(sim::is_node_id(init.ring));
  }
}

TEST_P(ShapeTest, CcIsWeaklyConnected) {
  core::SmallWorldNetwork net;
  net.add_nodes(generate());
  EXPECT_TRUE(core::cc_weakly_connected(net.engine()))
      << "shape " << to_string(shape()) << " n=" << n() << " seed=" << seed();
}

TEST_P(ShapeTest, AllReferencedIdsExist) {
  const auto inits = generate();
  std::vector<sim::Id> ids;
  for (const NodeInit& init : inits) ids.push_back(init.id);
  std::sort(ids.begin(), ids.end());
  const auto exists = [&](sim::Id id) {
    return std::binary_search(ids.begin(), ids.end(), id);
  };
  for (const NodeInit& init : inits) {
    if (init.l != kNegInf) {
      EXPECT_TRUE(exists(init.l));
    }
    if (init.r != kPosInf) {
      EXPECT_TRUE(exists(init.r));
    }
    EXPECT_TRUE(exists(init.lrl));
    EXPECT_TRUE(exists(init.ring));
  }
}

TEST_P(ShapeTest, RandomizedLrlKeepsConnectivity) {
  InitialStateOptions options;
  options.randomize_lrl = true;
  core::SmallWorldNetwork net;
  util::Rng rng(seed());
  auto ids = core::random_ids(n(), rng);
  net.add_nodes(make_initial_state(shape(), std::move(ids), rng, options));
  EXPECT_TRUE(core::cc_weakly_connected(net.engine()));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ShapeTest,
    ::testing::Combine(::testing::ValuesIn(kAllShapes),
                       ::testing::Values(2, 3, 16, 64),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name + "_n" + std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(InitialStates, SortedRingShapeIsAlreadyStable) {
  util::Rng rng(9);
  core::SmallWorldNetwork net;
  net.add_nodes(
      make_initial_state(InitialShape::kSortedRing, core::random_ids(20, rng), rng));
  EXPECT_TRUE(net.sorted_ring());
}

TEST(InitialStates, SortedListShapeLacksRing) {
  util::Rng rng(9);
  core::SmallWorldNetwork net;
  net.add_nodes(
      make_initial_state(InitialShape::kSortedList, core::random_ids(20, rng), rng));
  EXPECT_TRUE(net.sorted_list());
  EXPECT_FALSE(net.sorted_ring());
}

TEST(InitialStates, RandomChainIsNotSorted) {
  util::Rng rng(9);
  core::SmallWorldNetwork net;
  net.add_nodes(
      make_initial_state(InitialShape::kRandomChain, core::random_ids(64, rng), rng));
  EXPECT_FALSE(net.sorted_list());
}

TEST(InitialStates, StarHubHasNoLinks) {
  util::Rng rng(4);
  const auto inits =
      make_initial_state(InitialShape::kStar, core::random_ids(16, rng), rng);
  int hubs = 0;
  for (const auto& init : inits)
    if (init.l == kNegInf && init.r == kPosInf) ++hubs;
  EXPECT_EQ(hubs, 1);
}

TEST(InitialStates, ShapeNamesUnique) {
  std::set<std::string> names;
  for (const InitialShape shape : kAllShapes) names.insert(to_string(shape));
  EXPECT_EQ(names.size(), std::size(kAllShapes));
}

TEST(InitialStates, DeterministicGivenSeed) {
  util::Rng rng_a(5), rng_b(5);
  auto ids_a = core::random_ids(32, rng_a);
  auto ids_b = core::random_ids(32, rng_b);
  const auto a = make_initial_state(InitialShape::kRandomTree, ids_a, rng_a);
  const auto b = make_initial_state(InitialShape::kRandomTree, ids_b, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].l, b[i].l);
    EXPECT_EQ(a[i].r, b[i].r);
    EXPECT_EQ(a[i].lrl, b[i].lrl);
  }
}

}  // namespace
}  // namespace sssw::topology
