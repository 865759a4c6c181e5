// config.hpp — protocol parameters.
//
// Defaults reproduce the paper's pseudocode exactly (modulo the two typo
// fixes documented in DESIGN.md §1).  Every knob exists for a documented
// experiment; none change the default behaviour.
#pragma once

#include <cstdint>

namespace sssw::core {

/// Active failure detector (probe/ack liveness over stored pointers).
///
/// Disabled by default: with `enabled == false` no node allocates a
/// detector, no timer is ever armed and the send path is byte-identical to
/// the detector-less build (same contract as an inactive sim::FaultPlan).
/// With it on, each node pings every finite stored pointer (l, r, ring and
/// each lrl target) every `probe_period` rounds; `suspect_threshold`
/// consecutive unanswered pings mark the target suspected, after which up to
/// `max_retries` pings with exponential backoff are granted before the
/// target is evicted: quarantined for `quarantine_rounds`, purged from every
/// pointer slot and the gap re-linked through the last (l, r) view the
/// target ever reported in a pong.  Quarantine keeps stale or replayed
/// messages from re-introducing the dead identifier.
///
/// `suspect_threshold * probe_period` must sit comfortably above the worst
/// scheduler round-trip (adversarial-oldest-last at default hold 3 is 8
/// rounds — and timers fire *before* a round's deliveries, so a pong
/// arriving "in time" still trails the tick that would have counted it);
/// the defaults give 16 rounds of silence before suspicion and ~52 before
/// eviction, so no deterministic scheduler ever suspects a live neighbour.
struct DetectorConfig {
  bool enabled = false;
  std::uint32_t probe_period = 4;       ///< rounds between probe ticks (>= 1)
  std::uint32_t suspect_threshold = 4;  ///< missed acks before suspicion (>= 1)
  std::uint32_t max_retries = 2;        ///< backoff retries granted after suspicion
  std::uint32_t quarantine_rounds = 64; ///< rounds an evicted id stays blacklisted
  std::uint32_t quarantine_capacity = 32;  ///< dead ids remembered (FIFO beyond)

  bool operator==(const DetectorConfig&) const = default;
};

struct Config {
  /// ε in the forget probability φ(α) and in the O(ln^{2+ε} n) bounds.
  double epsilon = 0.1;

  /// Regular actions between probing() executions (§III.C says probes are
  /// periodic; the pseudocode probes every regular action, i.e. interval 1).
  /// Experiment E8 sweeps this.
  std::uint32_t probe_interval = 1;

  /// LINEARIZE's long-range-link shortcut (`m.id > p.lrl > p.r` forwarding).
  /// Ablation A1 turns it off to isolate what the shortcut buys.
  bool lrl_shortcut = true;

  /// Enable the probing procedure (Algorithms 5/6/10).  Disabling it breaks
  /// the Phase-1 guarantee; exists only for ablation/tests.
  bool probing_enabled = true;

  /// Enable move-and-forget (Algorithms 3/4 + inclrl traffic).  Disabling
  /// degenerates the protocol to linearization + ring; used by ablations.
  bool move_and_forget_enabled = true;

  /// Number of long-range links per node (extension; 1 = the paper).  Each
  /// link runs its own move-and-forget walk; reslrl responses carry the
  /// responder's identity (Message::id3) so the origin can match the
  /// response to the right link.  More links buy shorter greedy routes for
  /// proportionally more degree and inclrl/reslrl traffic (a3-multilink).
  std::uint32_t lrl_count = 1;

  /// Crash-stop failure detector (extension; defaults off = paper
  /// semantics).  The paper's leave analysis (§IV.G) assumes fail-stop with
  /// neighbour detection; without a detector, a crashed node's neighbours
  /// keep stored pointers at an identifier that never answers and the gap
  /// never heals.  The detector sends its own ping/pong round-trips on a
  /// deterministic timer, so it detects crashes even in the stable state
  /// where no protocol traffic flows, and its evictions actively re-link
  /// the gap through the dead node's last reported neighbour view.  See
  /// DetectorConfig and doc/FAULTS.md.
  DetectorConfig detector{};

  bool operator==(const Config&) const = default;
};

}  // namespace sssw::core
