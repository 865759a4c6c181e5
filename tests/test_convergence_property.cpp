// Property tests for the whole protocol: Theorem 4.1 (convergence to the
// small-world/ring state from any weakly connected start), Lemma 4.10
// (connectivity is never lost), and closure (legal states stay legal) —
// parameterized over initial shape × scheduler × size × seed.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/invariants.hpp"
#include "core/network.hpp"
#include "core/views.hpp"
#include "graph/traversal.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw::core {
namespace {

using topology::InitialShape;

struct Case {
  InitialShape shape;
  sim::SchedulerKind scheduler;
  std::size_t n;
  std::uint64_t seed;
};

class ConvergenceProperty : public ::testing::TestWithParam<Case> {
 protected:
  SmallWorldNetwork build() const {
    const Case& c = GetParam();
    util::Rng rng(c.seed);
    auto ids = random_ids(c.n, rng);
    NetworkOptions options;
    options.scheduler = c.scheduler;
    options.seed = c.seed;
    SmallWorldNetwork net(options);
    net.add_nodes(topology::make_initial_state(c.shape, std::move(ids), rng));
    return net;
  }
};

TEST_P(ConvergenceProperty, ReachesSortedRing) {
  SmallWorldNetwork net = build();
  const std::size_t budget = 400 * GetParam().n + 4000;
  const auto rounds = net.run_until_sorted_ring(budget);
  ASSERT_TRUE(rounds.has_value()) << "stuck in phase " << to_string(net.phase());
}

TEST_P(ConvergenceProperty, ConnectivityNeverLost) {
  // Lemma 4.10: once weakly connected (in CC), always weakly connected —
  // checked after every single round until the ring forms.
  SmallWorldNetwork net = build();
  ASSERT_TRUE(cc_weakly_connected(net.engine()));
  const std::size_t budget = 400 * GetParam().n + 4000;
  for (std::size_t round = 0; round < budget; ++round) {
    net.run_rounds(1);
    ASSERT_TRUE(cc_weakly_connected(net.engine())) << "lost at round " << round;
    if (net.sorted_ring()) return;
  }
  FAIL() << "never reached the sorted ring";
}

TEST_P(ConvergenceProperty, RingIsClosedUnderProtocol) {
  SmallWorldNetwork net = build();
  const std::size_t budget = 400 * GetParam().n + 4000;
  ASSERT_TRUE(net.run_until_sorted_ring(budget).has_value());
  for (int round = 0; round < 60; ++round) {
    net.run_rounds(1);
    ASSERT_TRUE(net.sorted_ring()) << "legal state violated at +" << round;
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  for (const InitialShape shape : topology::kAllShapes) {
    // Synchronous: the main scheduler, two sizes, two seeds.
    for (const std::size_t n : {8u, 48u})
      for (const std::uint64_t seed : {1u, 2u})
        cases.push_back({shape, sim::SchedulerKind::kSynchronous, n, seed});
    // Async + adversarial + slow channels: smaller sizes (rounds are cheaper
    // but slower to converge), one seed each.
    cases.push_back({shape, sim::SchedulerKind::kRandomAsync, 12, 3});
    cases.push_back({shape, sim::SchedulerKind::kAdversarialLifo, 12, 4});
    cases.push_back({shape, sim::SchedulerKind::kDelayedRandom, 12, 5});
    cases.push_back({shape, sim::SchedulerKind::kAdversarialOldestLast, 12, 6});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = topology::to_string(info.param.shape);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  name += std::string("_") + [&] {
    switch (info.param.scheduler) {
      case sim::SchedulerKind::kSynchronous:
        return "sync";
      case sim::SchedulerKind::kRandomAsync:
        return "async";
      case sim::SchedulerKind::kAdversarialLifo:
        return "lifo";
      case sim::SchedulerKind::kDelayedRandom:
        return "delayed";
      case sim::SchedulerKind::kAdversarialOldestLast:
        return "oldest_last";
    }
    return "x";
  }();
  name += "_n" + std::to_string(info.param.n) + "_s" + std::to_string(info.param.seed);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, ConvergenceProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

// --- phase monotonicity ----------------------------------------------------

class PhaseMonotonicity : public ::testing::TestWithParam<InitialShape> {};

TEST_P(PhaseMonotonicity, DetectPhaseNeverRegresses) {
  // The §IV phase structure is a ladder: under the synchronous scheduler
  // with no churn and no faults, once a phase target holds it keeps holding
  // (Thm 4.3's LCC invariant, closure of the sorted list/ring, and
  // forget_count being monotone).  This is the fuzzer's kPhaseMonotone
  // oracle, kept honest in-tree over every initial shape.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    const std::size_t n = 16;
    NetworkOptions options;
    options.seed = seed;
    SmallWorldNetwork net(options);
    net.add_nodes(
        topology::make_initial_state(GetParam(), random_ids(n, rng), rng));
    Phase best = net.phase();
    const std::size_t budget = 400 * n + 4000;
    for (std::size_t round = 0; round < budget; ++round) {
      net.run_rounds(1);
      const Phase phase = net.phase();
      ASSERT_GE(phase, best) << "phase regressed from " << to_string(best)
                             << " to " << to_string(phase) << " at round "
                             << round << " (seed " << seed << ")";
      best = phase;
      if (phase == Phase::kSmallWorld) break;
    }
    EXPECT_EQ(best, Phase::kSmallWorld) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, PhaseMonotonicity,
                         ::testing::ValuesIn(std::vector<InitialShape>(
                             std::begin(topology::kAllShapes),
                             std::end(topology::kAllShapes))),
                         [](const ::testing::TestParamInfo<InitialShape>& param_info) {
                           std::string name = topology::to_string(param_info.param);
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

// --- fault-injection: corrupt a stabilized network and watch it re-heal ----

class FaultInjection : public ::testing::TestWithParam<int> {};

TEST_P(FaultInjection, RecoversFromCorruptedLrls) {
  util::Rng rng(100 + GetParam());
  SmallWorldNetwork net = make_stable_ring(random_ids(32, rng));
  net.run_rounds(40);
  const auto ids = net.engine().id_span();
  for (const sim::Id id : ids)
    net.node(id)->set_lrl(ids[rng.below(ids.size())]);  // scramble every lrl
  EXPECT_TRUE(net.run_until_sorted_ring(5000).has_value());
}

TEST_P(FaultInjection, RecoversFromGarbageChannelContents) {
  util::Rng rng(200 + GetParam());
  SmallWorldNetwork net = make_stable_ring(random_ids(24, rng));
  const auto ids = net.engine().id_span();
  // Flood channels with random well-typed messages carrying random ids.
  for (int i = 0; i < 200; ++i) {
    const sim::Id to = ids[rng.below(ids.size())];
    const auto type = static_cast<sim::MessageType>(rng.below(kNumMsgTypes));
    net.engine().inject(to, sim::Message{type, ids[rng.below(ids.size())],
                                         ids[rng.below(ids.size())]});
  }
  EXPECT_TRUE(net.run_until_sorted_ring(5000).has_value());
  // And the ring remains stable afterwards.
  net.run_rounds(30);
  EXPECT_TRUE(net.sorted_ring());
}

TEST_P(FaultInjection, RecoversFromCorruptedNeighborSubset) {
  util::Rng rng(300 + GetParam());
  SmallWorldNetwork net = make_stable_ring(random_ids(32, rng));
  const auto ids = net.engine().id_span();
  // Corrupt a third of the nodes: point r at a far (still larger) node.
  for (std::size_t i = 0; i + 3 < ids.size(); i += 3) {
    auto* node = net.node(ids[i]);
    node->set_r(ids[ids.size() - 1 - rng.below(2)]);
  }
  EXPECT_TRUE(net.run_until_sorted_ring(20000).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultInjection, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sssw::core
