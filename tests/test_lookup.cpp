// test_lookup.cpp — the in-band lookup service (doc/SERVICE.md).
//
// Covers the four layers separately and then end to end: the token codec
// (core/messages.hpp), the shared next-hop decision (routing/next_hop.hpp)
// including the live path's fallback mode, node-side forwarding behavior
// (hits, misses, passive repair), and the LookupManager's retry/backoff/
// hedge machinery with its determinism contract (twin runs byte-identical,
// completions survive message loss via retries, crashes dead-letter with
// typed reasons).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "routing/next_hop.hpp"
#include "service/lookup_manager.hpp"
#include "topology/initial_states.hpp"
#include "util/rng.hpp"

namespace sssw {
namespace {

// --- Token codec -----------------------------------------------------------

TEST(LookupToken, RoundTripsAcrossTheFullRange) {
  const std::uint64_t seqs[] = {0, 1, 4095, 4096, core::kLookupMaxSeq};
  const std::uint32_t ttls[] = {0, 1, 511, core::kLookupMaxTtl};
  const core::LookupReason reasons[] = {
      core::LookupReason::kNone, core::LookupReason::kNoProgress,
      core::LookupReason::kTargetDead, core::LookupReason::kTtlExhausted};
  for (const auto seq : seqs) {
    for (const auto ttl : ttls) {
      for (const auto reason : reasons) {
        const core::LookupToken token{seq, ttl, reason};
        const auto decoded = core::unpack_lookup_token(
            core::pack_lookup_token(token));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->seq, seq);
        EXPECT_EQ(decoded->ttl, ttl);
        EXPECT_EQ(decoded->reason, reason);
      }
    }
  }
}

TEST(LookupToken, RejectsChannelGarbage) {
  EXPECT_FALSE(core::unpack_lookup_token(-1.0).has_value());
  EXPECT_FALSE(core::unpack_lookup_token(0.5).has_value());
  EXPECT_FALSE(core::unpack_lookup_token(sim::kPosInf).has_value());
  EXPECT_FALSE(core::unpack_lookup_token(
                   std::numeric_limits<double>::quiet_NaN())
                   .has_value());
  EXPECT_FALSE(core::unpack_lookup_token(9007199254740992.0).has_value());
  // Largest legal token survives; one seq past the cap is rejected.
  const core::LookupToken max{core::kLookupMaxSeq, core::kLookupMaxTtl,
                              core::LookupReason::kTtlExhausted};
  EXPECT_TRUE(core::unpack_lookup_token(core::pack_lookup_token(max)));
  EXPECT_FALSE(
      core::unpack_lookup_token(core::pack_lookup_token(max) + (1ull << 14))
          .has_value());
}

// --- Shared next-hop decision ----------------------------------------------

constexpr auto kAllAlive = [](sim::Id) { return false; };

TEST(NextHop, StrictModeArrivesForwardsAndDeadLetters) {
  const std::array<sim::Id, 3> candidates{0.2, 0.5, 0.8};
  const std::span<const sim::Id> span(candidates);
  EXPECT_EQ(routing::select_next_hop(0.4, 0.4, span, kAllAlive).outcome,
            routing::HopOutcome::kArrived);
  const auto forward = routing::select_next_hop(0.1, 0.9, span, kAllAlive);
  EXPECT_EQ(forward.outcome, routing::HopOutcome::kForward);
  EXPECT_EQ(forward.to, 0.8);
  // From 0.5 toward 0.5-adjacent target, no candidate improves: dead end.
  const auto stuck =
      routing::select_next_hop(0.6, 0.61, span, kAllAlive);
  EXPECT_EQ(stuck.outcome, routing::HopOutcome::kNoProgress);
}

TEST(NextHop, SkipsDeadCandidatesAndReportsDeadTargets) {
  const std::array<sim::Id, 3> candidates{0.2, 0.5, 0.8};
  const std::span<const sim::Id> span(candidates);
  const auto dead_08 = [](sim::Id id) { return id == 0.8; };
  const auto detour = routing::select_next_hop(0.1, 0.9, span, dead_08);
  EXPECT_EQ(detour.outcome, routing::HopOutcome::kForward);
  EXPECT_EQ(detour.to, 0.5);  // best live candidate
  const auto dead_target = [](sim::Id id) { return id == 0.9; };
  EXPECT_EQ(routing::select_next_hop(0.1, 0.9, span, dead_target).outcome,
            routing::HopOutcome::kTargetDead);
}

TEST(NextHop, FallbackForwardsAtADeadEndInsteadOfDeadLettering) {
  // No candidate is closer to 0.61 than 0.6 itself — strict mode dead-ends,
  // the live service's fallback rides the best remaining pointer and lets
  // the TTL bound the wandering.
  const std::array<sim::Id, 3> candidates{0.2, 0.5, 0.8};
  const std::span<const sim::Id> span(candidates);
  const auto hop = routing::select_next_hop(0.6, 0.61, span, kAllAlive,
                                            /*allow_fallback=*/true);
  EXPECT_EQ(hop.outcome, routing::HopOutcome::kForward);
  EXPECT_EQ(hop.to, 0.5);  // nearest-to-target among the live candidates
}

// --- End to end: manager + live engine -------------------------------------

core::SmallWorldNetwork make_ring(std::size_t n, std::uint64_t seed,
                                  bool detector = false,
                                  double message_loss = 0.0) {
  core::NetworkOptions options;
  options.seed = seed;
  options.message_loss = message_loss;
  options.protocol.detector.enabled = detector;
  util::Rng rng(seed);
  core::SmallWorldNetwork net(options);
  net.add_nodes(topology::make_initial_state(
      topology::InitialShape::kSortedRing, core::random_ids(n, rng), rng));
  return net;
}

TEST(LookupManager, DeliversOnAStableRingAndCountsHops) {
  auto net = make_ring(32, 7);
  net.run_rounds(64);  // let lrls settle
  service::LookupConfig config;
  config.rate = 0.0;
  config.ttl = 64;
  config.timeout_rounds = 128;
  config.seed = 7;
  service::LookupManager manager(net, config);
  std::vector<service::LookupCompletion> done;
  manager.set_completion_hook(
      [&](const service::LookupCompletion& c) { done.push_back(c); });
  const auto span = net.engine().id_span();
  const std::uint64_t request = manager.issue(span.front(), span[span.size() / 2]);
  net.run_rounds(128);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done.front().request, request);
  EXPECT_TRUE(done.front().ok);
  EXPECT_EQ(done.front().status, service::LookupStatus::kSucceeded);
  EXPECT_GT(done.front().hops, 0u);
  EXPECT_EQ(manager.pending(), 0u);
  EXPECT_EQ(manager.totals().succeeded, 1u);
  EXPECT_EQ(manager.totals().failed, 0u);
}

TEST(LookupManager, SelfLookupCompletesInstantly) {
  auto net = make_ring(8, 3);
  net.run_rounds(16);
  service::LookupConfig config;
  config.rate = 0.0;
  config.seed = 3;
  service::LookupManager manager(net, config);
  std::vector<service::LookupCompletion> done;
  manager.set_completion_hook(
      [&](const service::LookupCompletion& c) { done.push_back(c); });
  const sim::Id id = net.engine().id_span().front();
  manager.issue(id, id);
  net.run_rounds(8);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done.front().ok);
}

TEST(LookupManager, TwinRunsAreByteIdentical) {
  // The determinism contract: same (topology seed, manager seed, schedule)
  // ⇒ identical Totals, field for field, including retry/hedge counts.
  const auto run = [] {
    auto net = make_ring(24, 11, /*detector=*/true, /*message_loss=*/0.05);
    service::LookupConfig config;
    config.rate = 1.5;
    config.ttl = 48;
    config.timeout_rounds = 24;
    config.max_retries = 2;
    config.hedge_after = 8;
    config.seed = 99;
    service::LookupManager manager(net, config);
    net.run_rounds(300);
    return manager.totals();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.issued, 0u);
}

TEST(LookupManager, RetriesRecoverLostLookups) {
  // 10% loss gives a multi-hop round trip only ~60% odds per attempt; with
  // three retries the request-level success rate must clear 90% — well
  // above what any single attempt can deliver.
  auto net = make_ring(16, 21, /*detector=*/false, /*message_loss=*/0.1);
  net.run_rounds(64);
  service::LookupConfig config;
  config.rate = 1.0;
  config.ttl = 64;
  config.timeout_rounds = 32;
  config.max_retries = 3;
  config.backoff_rounds = 4;
  config.seed = 21;
  service::LookupManager manager(net, config);
  net.run_rounds(600);
  manager.set_rate(0.0);
  net.run_rounds(200);  // drain
  const auto& totals = manager.totals();
  ASSERT_GT(totals.issued, 100u);
  EXPECT_GT(totals.retries, 0u);
  EXPECT_GT(totals.attempts, totals.issued);
  const double success = static_cast<double>(totals.succeeded) /
                         static_cast<double>(totals.succeeded + totals.failed);
  EXPECT_GT(success, 0.9);
}

TEST(LookupManager, HedgingIssuesParallelAttempts) {
  auto net = make_ring(16, 31, /*detector=*/false, /*message_loss=*/0.25);
  net.run_rounds(32);
  service::LookupConfig config;
  config.rate = 2.0;
  config.ttl = 64;
  config.timeout_rounds = 64;
  config.hedge_after = 4;
  config.seed = 31;
  service::LookupManager manager(net, config);
  net.run_rounds(400);
  EXPECT_GT(manager.totals().hedges, 0u);
}

TEST(LookupManager, CrashedTargetsDeadLetterWithTypedReason) {
  auto net = make_ring(24, 41, /*detector=*/true);
  net.run_rounds(128);
  const auto span = net.engine().id_span();
  const sim::Id victim = span[span.size() / 2];
  const sim::Id source = span.front();
  ASSERT_TRUE(net.crash(victim));
  // Let the detector quarantine the victim so hops can type the failure.
  net.run_rounds(128);
  service::LookupConfig config;
  config.rate = 0.0;
  config.ttl = 64;
  config.timeout_rounds = 64;
  config.max_retries = 1;
  config.seed = 41;
  service::LookupManager manager(net, config);
  std::vector<service::LookupCompletion> done;
  manager.set_completion_hook(
      [&](const service::LookupCompletion& c) { done.push_back(c); });
  manager.issue(source, victim);
  net.run_rounds(400);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done.front().ok);
  EXPECT_EQ(done.front().status, service::LookupStatus::kTargetDead);
  EXPECT_EQ(manager.totals().deadletter_target_dead, 1u);
}

// --- Node-side behaviors ----------------------------------------------------

TEST(LookupNode, RescueContactsRememberRecentSenders) {
  auto net = make_ring(8, 51, /*detector=*/true);
  net.run_rounds(64);
  // Any node that has been exchanging protocol traffic has a populated MRU
  // rescue cache of provably-live contacts (node.hpp: isolation rescue).
  const core::SmallWorldNode* node = net.node(net.engine().id_span().front());
  ASSERT_NE(node, nullptr);
  bool any = false;
  for (const sim::Id contact : node->rescue_contacts())
    if (std::isfinite(contact)) any = true;
  EXPECT_TRUE(any);
}

TEST(LookupNode, PassiveRepairBridgesASeveredSegment) {
  // Two sorted segments with no cross-references — the split a mass crash
  // can leave behind.  A lookup from the low segment toward a high id dead
  // ends at the segment edge; passive repair must linearize the target
  // there, and stabilization then merges the line.  Build the split by
  // crashing the two bridge nodes of a 3+2+3 ring before any pong history
  // exists (via-less evictions purge without relinking).
  core::NetworkOptions options;
  options.seed = 61;
  options.protocol.detector.enabled = true;
  core::SmallWorldNetwork net(options);
  const std::vector<sim::Id> ids{0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.95};
  util::Rng rng(61);
  net.add_nodes(topology::make_initial_state(topology::InitialShape::kSortedRing,
                                             std::vector<sim::Id>(ids), rng));
  net.crash(0.45);
  net.crash(0.95);
  service::LookupConfig config;
  config.rate = 2.0;
  config.ttl = 24;
  config.timeout_rounds = 16;
  config.max_retries = 1;
  config.seed = 61;
  service::LookupManager manager(net, config);
  bool merged = false;
  for (int block = 0; block < 40 && !merged; ++block) {
    net.run_rounds(50);
    merged = net.sorted_ring();
  }
  EXPECT_TRUE(merged) << "survivors never re-formed the ring";
}

}  // namespace
}  // namespace sssw
