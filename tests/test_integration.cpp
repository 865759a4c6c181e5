// End-to-end lifecycle tests: everything at once, the way a deployment
// would see it.  Build from an adversarial state, stabilize, serve lookups,
// absorb churn, crash nodes, scramble state — and end in the legal state
// every time.
#include <gtest/gtest.h>

#include <string>

#include "core/invariants.hpp"
#include "core/network.hpp"
#include "core/snapshot.hpp"
#include "core/views.hpp"
#include "routing/greedy.hpp"
#include "routing/probe_path.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

struct Scenario {
  std::uint64_t seed;
  topology::InitialShape shape;
  double message_loss;
  std::uint32_t lrl_count;
};

class Lifecycle : public ::testing::TestWithParam<Scenario> {};

TEST_P(Lifecycle, FullStory) {
  const Scenario& scenario = GetParam();
  constexpr std::size_t kN = 40;

  util::Rng rng(scenario.seed);
  NetworkOptions options;
  options.seed = scenario.seed;
  options.message_loss = scenario.message_loss;
  options.protocol.detector.enabled = true;  // crashes below must heal
  options.protocol.lrl_count = scenario.lrl_count;
  SmallWorldNetwork net(options);
  net.add_nodes(
      topology::make_initial_state(scenario.shape, random_ids(kN, rng), rng));

  // Act 1: stabilize from the adversarial start.
  ASSERT_TRUE(net.run_until_sorted_ring(200000).has_value())
      << "stuck in " << to_string(net.phase());

  // Act 2: serve lookups (every pair must route over the stored links).
  net.run_rounds(4 * kN);
  {
    const IdIndex index = net.make_index();
    const auto cp = view_cp(net.engine(), index);
    util::Rng eval(scenario.seed + 1);
    const auto stats = routing::evaluate_routing(cp, eval, 100, kN);
    EXPECT_EQ(stats.success_rate, 1.0);
  }

  // Act 3: churn — two joins, one polite leave.
  for (int i = 0; i < 2; ++i) {
    sim::Id fresh;
    do {
      fresh = rng.uniform();
    } while (fresh == 0.0 || net.engine().contains(fresh));
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.join(fresh, ids[rng.below(ids.size())]));
    ASSERT_TRUE(net.run_until_sorted_ring(200000).has_value()) << "join " << i;
  }
  {
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.leave(ids[rng.below(ids.size())]));
    ASSERT_TRUE(net.run_until_sorted_ring(200000).has_value()) << "leave";
  }

  // Act 4: a crash (no detection courtesy — the failure detector heals it).
  {
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.crash(ids[rng.below(ids.size())]));
    ASSERT_TRUE(net.run_until_sorted_ring(200000).has_value()) << "crash";
  }

  // Act 5: an adversary scrambles every long-range link and floods garbage.
  {
    const auto ids = net.engine().id_span();
    for (const sim::Id id : ids) net.node(id)->set_lrl(ids[rng.below(ids.size())]);
    for (int i = 0; i < 100; ++i) {
      net.engine().inject(ids[rng.below(ids.size())],
                          sim::Message{static_cast<sim::MessageType>(rng.below(7)),
                                       ids[rng.below(ids.size())],
                                       ids[rng.below(ids.size())]});
    }
    ASSERT_TRUE(net.run_until_sorted_ring(200000).has_value()) << "scramble";
  }

  // Act 6: snapshot, restore, and the restored copy still runs fine.
  {
    const Snapshot snapshot = take_snapshot(net, /*include_channels=*/false);
    NetworkOptions copy_options = options;
    copy_options.seed = scenario.seed + 99;
    SmallWorldNetwork copy = restore_snapshot(snapshot, copy_options);
    ASSERT_TRUE(copy.run_until_sorted_ring(200000).has_value()) << "restore";
    copy.run_rounds(30);
    EXPECT_TRUE(copy.sorted_ring());
  }

  // Epilogue.  With the failure detector enabled, missed acks that
  // accumulated during the stormy acts (lost pongs, garbage traffic) can
  // evict a live neighbour shortly after legality; the quarantine expires
  // and the pair re-links — so the postcondition is "re-acquires and then
  // holds the ring", not "holds it at an arbitrary instant".
  net.run_rounds(20);
  ASSERT_TRUE(net.run_until_sorted_ring(2000).has_value());
  net.run_rounds(options.protocol.detector.quarantine_rounds);
  ASSERT_TRUE(net.run_until_sorted_ring(2000).has_value());
  for (const sim::Id id : net.engine().id_span()) {
    const sim::Id target = net.node(id)->lrl();
    if (target == id || !net.engine().contains(target)) continue;
    EXPECT_TRUE(routing::probe_walk(net, id, target, 16 * kN).reached);
  }
  EXPECT_EQ(net.size(), kN + 2 - 2);
}

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  std::string name = topology::to_string(info.param.shape);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  name += "_loss" + std::to_string(static_cast<int>(100 * info.param.message_loss));
  name += "_k" + std::to_string(info.param.lrl_count);
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Lifecycle,
    ::testing::Values(
        Scenario{1, topology::InitialShape::kRandomChain, 0.0, 1},
        Scenario{2, topology::InitialShape::kStar, 0.0, 1},
        Scenario{3, topology::InitialShape::kRandomTree, 0.0, 2},
        Scenario{4, topology::InitialShape::kBridgedChains, 0.0, 1},
        Scenario{5, topology::InitialShape::kLongJumpChain, 0.0, 3},
        Scenario{6, topology::InitialShape::kScrambledLrl, 0.05, 1},
        Scenario{7, topology::InitialShape::kSortedRing, 0.1, 2}),
    scenario_name);

}  // namespace
}  // namespace sssw::core
