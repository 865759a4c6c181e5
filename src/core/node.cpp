#include "core/node.hpp"

#include <algorithm>
#include <array>

#include "core/invariant_tracker.hpp"
#include "core/node_metrics.hpp"
#include "routing/next_hop.hpp"
#include "util/check.hpp"

namespace sssw::core {

using sim::Id;
using sim::is_node_id;
using sim::kNegInf;
using sim::kPosInf;

const char* msg_type_name(sim::MessageType type) noexcept {
  switch (type) {
    case kLin:
      return "lin";
    case kInclrl:
      return "inclrl";
    case kReslrl:
      return "reslrl";
    case kRing:
      return "ring";
    case kResring:
      return "resring";
    case kProbr:
      return "probr";
    case kProbl:
      return "probl";
    case kPing:
      return "ping";
    case kPong:
      return "pong";
    case kLookup:
      return "lookup";
    case kLookupHit:
      return "lookup-hit";
    case kLookupMiss:
      return "lookup-miss";
    default:
      return "?";
  }
}

SmallWorldNode::SmallWorldNode(const NodeInit& init, const Config& config)
    : sim::Process(sim::kSmallWorldProcess),
      id_(init.id),
      owned_store_(std::make_unique<NodeStore>(config)),
      store_(owned_store_.get()),
      slot_(store_->acquire()) {
  init_state(init);
}

SmallWorldNode::SmallWorldNode(const NodeInit& init, NodeStore& store)
    : sim::Process(sim::kSmallWorldProcess),
      id_(init.id),
      store_(&store),
      slot_(store_->acquire()) {
  init_state(init);
}

SmallWorldNode::~SmallWorldNode() { store_->release(slot_); }

void SmallWorldNode::init_state(const NodeInit& init) {
  SSSW_CHECK_MSG(is_node_id(id_), "node id must be finite");
  SSSW_CHECK_MSG(init.l == kNegInf || init.l < id_,
                 "initial l must be < id or -inf");
  SSSW_CHECK_MSG(init.r == kPosInf || init.r > id_,
                 "initial r must be > id or +inf");
  lv() = init.l;
  rv() = init.r;
  ringv() = init.ring;
  const std::span<LongRangeLink> ls = links();
  ls.front().target = init.lrl;  // the paper's single p.lrl
  for (std::size_t i = 1; i < ls.size(); ++i) ls[i].target = id_;
  if (config().detector.enabled) {
    detector_ = std::make_unique<FailureDetector>(id_, config().detector,
                                                  config().lrl_count);
    pointer_scratch_.resize(FailureDetector::kRoleLrlBase + config().lrl_count);
  }
}

void SmallWorldNode::send(sim::Context& ctx, Id to, sim::MessageType type, Id id1,
                          Id id2) {
  if (!is_node_id(to) || !is_node_id(id1)) return;
  ctx.send(to, sim::Message{type, id1, id2});
}

void SmallWorldNode::notify_list() {
  if (tracker_ != nullptr) tracker_->on_list_changed(*this);
}

void SmallWorldNode::notify_lrl() {
  if (tracker_ != nullptr) tracker_->on_lrl_changed(*this);
}

void SmallWorldNode::notify_forget() {
  if (tracker_ != nullptr) tracker_->on_forget(*this);
}

void SmallWorldNode::reset_lrls_matching(Id id) noexcept {
  bool changed = false;
  for (LongRangeLink& link : links()) {
    if (link.target == id) {
      link.target = id_;
      changed = true;
      if (metrics_ != nullptr) metrics_->lrl_resets.add(1);
    }
  }
  if (changed) notify_lrl();
}

bool SmallWorldNode::has_ring_edge() const noexcept {
  return (lv() == kNegInf || rv() == kPosInf) && is_node_id(ringv()) && ringv() != id_;
}

void SmallWorldNode::tidy_ring() noexcept {
  if (lv() != kNegInf && rv() != kPosInf) ringv() = id_;
}

// --- long-range-link helpers ------------------------------------------------

SmallWorldNode::LongRangeLink* SmallWorldNode::link_for_response(Id responder) noexcept {
  if (links().size() == 1) return &links().front();  // paper semantics: always move
  for (LongRangeLink& link : links())
    if (link.target == responder) return &link;
  return nullptr;  // stale response for a link that moved on: drop
}

Id SmallWorldNode::best_right_shortcut(Id bound) const noexcept {
  Id best = kNegInf;
  for (const LongRangeLink& link : links())
    if (link.target <= bound && link.target > rv() && link.target > best)
      best = link.target;
  return best;
}

Id SmallWorldNode::best_left_shortcut(Id bound) const noexcept {
  Id best = kPosInf;
  for (const LongRangeLink& link : links())
    if (link.target >= bound && link.target < lv() && link.target < best)
      best = link.target;
  return best == kPosInf ? kNegInf : best;
}

Id SmallWorldNode::min_lrl() const noexcept {
  Id best = links().front().target;
  for (const LongRangeLink& link : links()) best = std::min(best, link.target);
  return best;
}

Id SmallWorldNode::max_lrl() const noexcept {
  Id best = links().front().target;
  for (const LongRangeLink& link : links()) best = std::max(best, link.target);
  return best;
}

// ---------------------------------------------------------------------------
// Algorithm 1 — ACTIONS OF NODE P
// ---------------------------------------------------------------------------

void SmallWorldNode::on_message(sim::Context& ctx, const sim::Message& m) {
  now_ = ctx.round();
  switch (m.type) {
    case kLin:
      linearize(ctx, m.id1);
      break;
    case kInclrl:
      remember_contact(m.id1);  // the requester itself — live at send time
      if (config().move_and_forget_enabled) respond_lrl(ctx, m.id1);
      break;
    case kReslrl:
      if (config().move_and_forget_enabled) move_forget(ctx, m.id1, m.id2, m.id3);
      break;
    case kRing:
      remember_contact(m.id1);  // the walk's origin announces itself
      respond_ring(ctx, m.id1);
      break;
    case kResring:
      update_ring(m.id1);
      break;
    case kProbr:
      probing_r(ctx, m.id1);
      break;
    case kProbl:
      probing_l(ctx, m.id1);
      break;
    case kPing:
      // Unconditional reply = detector completeness: a live node always
      // answers, whatever its own protocol state — including pings from ids
      // this node itself suspects or has quarantined.  Under crash-stop a
      // ping *proves* the prober is alive (crashed nodes send nothing; a
      // replayed ping from a truly dead id only earns a pong the engine
      // drops), so suppression has no upside, and it has a fatal downside:
      // if A refuses B's pings while A quarantines B, B's detector starves,
      // B evicts and quarantines A just as A's quarantine of B expires, and
      // the pair locks into a perpetual alternating mutual-quarantine cycle
      // — two live ring neighbours permanently dead to each other (exposed
      // by the E15 lookup-SLO bench as a never-healing blackhole pair).
      // The pong carries this node's (l, r) view (possibly ±∞ — ctx.send
      // directly, the sentinel-suppressing send() would drop it) so the
      // prober can re-link through it if this node later crashes.
      remember_contact(m.id1);  // the prober itself — live at send time
      if (config().detector.enabled && is_node_id(m.id1)) {
        ctx.send(m.id1, sim::Message{kPong, lv(), rv(), id_});
        if (metrics_ != nullptr) metrics_->detector_acks.add(1);
      }
      break;
    case kPong:
      remember_contact(m.id3);  // the responder itself — live at send time
      if (detector_ != nullptr) {
        detector_->on_pong(m.id3, m.id1, m.id2);
        if (metrics_ != nullptr) metrics_->detector_pongs.add(1);
      }
      break;
    case kLookup:
      handle_lookup(ctx, m);
      break;
    case kLookupHit:
    case kLookupMiss:
      // Completions buffer for the LookupManager's sequential round-hook
      // drain; without a manager these are channel garbage like any other
      // unknown payload.
      if (service_enabled_) service_inbox_.push_back(m);
      break;
    default:
      break;  // unknown types are ignored (self-stabilization: garbage in channels)
  }
}

bool SmallWorldNode::is_dead(Id id) const noexcept {
  if (!is_node_id(id) || id == id_ || detector_ == nullptr) return false;
  if (detector_->is_quarantined(id, now_) || detector_->is_suspect(id)) {
    if (metrics_ != nullptr) metrics_->detector_quarantine_hits.add(1);
    return true;
  }
  return false;
}

std::size_t SmallWorldNode::quarantined_count() const noexcept {
  return detector_ != nullptr ? detector_->quarantined_count(now_) : 0;
}

void SmallWorldNode::apply_eviction(sim::Context& ctx,
                                    const FailureDetector::Eviction& ev) {
  const Id target = ev.target;
  // Purge every slot still holding the dead id, not just the role that
  // crossed the threshold — the id is quarantined now, so the other slots'
  // monitors could only rediscover the same verdict more slowly.
  if (lv() == target) {
    lv() = kNegInf;
    notify_list();
  }
  if (rv() == target) {
    rv() = kPosInf;
    notify_list();
  }
  if (ringv() == target) ringv() = id_;
  reset_lrls_matching(target);
  if (metrics_ != nullptr) metrics_->detector_evictions.add(1);
  // Re-link through the dead node's last reported (l, r) view: linearize
  // integrates each survivor into this node's own neighbourhood, closing
  // the line over the gap.  Views predating the crash are fine — the ids
  // in them were live neighbours of the dead node, which is exactly who
  // this node must now meet.
  if (is_node_id(ev.via_l) && ev.via_l != id_ && !is_dead(ev.via_l)) {
    linearize(ctx, ev.via_l);
  }
  if (is_node_id(ev.via_r) && ev.via_r != id_ && !is_dead(ev.via_r)) {
    linearize(ctx, ev.via_r);
  }
  tidy_ring();
}

void SmallWorldNode::remember_contact(Id id) noexcept {
  if (!is_node_id(id) || id == id_) return;
  if (rescue_.front() == id) return;
  // MRU with dedup: shift down to where the id already sits (or the tail).
  std::size_t hold = rescue_.size() - 1;
  for (std::size_t i = 1; i + 1 < rescue_.size(); ++i) {
    if (rescue_[i] == id) {
      hold = i;
      break;
    }
  }
  for (std::size_t i = hold; i > 0; --i) rescue_[i] = rescue_[i - 1];
  rescue_.front() = id;
}

void SmallWorldNode::attempt_rescue(sim::Context& ctx) {
  if (lv() != kNegInf || rv() != kPosInf) return;  // still on the line
  for (const Id contact : rescue_) {
    if (!is_node_id(contact) || contact == id_) continue;
    // A plain lin announcement, not an adoption: if the contact crashed too
    // the send is dropped; any live contact re-enters this node into normal
    // linearization (no quarantine gate — a node with no pointers left has
    // nothing to protect and everything to regain).
    ctx.send(contact, sim::Message{kLin, id_});
    if (metrics_ != nullptr) metrics_->detector_rescues.add(1);
  }
}

void SmallWorldNode::on_timer(sim::Context& ctx, std::uint64_t tag) {
  if (tag != FailureDetector::kProbeTimerTag || detector_ == nullptr) return;
  now_ = ctx.round();
  // Re-arm first: the probe clock must keep beating even if an eviction
  // below throws the node into repair.
  ctx.schedule_timer(config().detector.probe_period,
                     FailureDetector::kProbeTimerTag);
  pointer_scratch_[FailureDetector::kRoleL] = lv();
  pointer_scratch_[FailureDetector::kRoleR] = rv();
  pointer_scratch_[FailureDetector::kRoleRing] = ringv();
  for (std::size_t i = 0; i < links().size(); ++i) {
    pointer_scratch_[FailureDetector::kRoleLrlBase + i] = links()[i].target;
  }
  detector_->tick(now_, pointer_scratch_);
  for (const FailureDetector::Probe& probe : detector_->probes()) {
    ctx.send(probe.target, sim::Message{kPing, id_});
    if (metrics_ != nullptr) {
      metrics_->detector_probes.add(1);
      if (probe.retry) metrics_->detector_retries.add(1);
      if (probe.suspect) metrics_->detector_suspects.add(1);
    }
  }
  for (const FailureDetector::Eviction& ev : detector_->evictions()) {
    apply_eviction(ctx, ev);
  }
}

void SmallWorldNode::on_regular(sim::Context& ctx) {
  now_ = ctx.round();
  if (detector_ != nullptr && !probe_timer_armed_) {
    // Armed lazily on the first regular action rather than at construction:
    // a Process only gains a Context once it is registered with an engine.
    ctx.schedule_timer(config().detector.probe_period,
                       FailureDetector::kProbeTimerTag);
    probe_timer_armed_ = true;
  }
  attempt_rescue(ctx);
  send_id(ctx);
  if (config().probing_enabled) {
    if (probe_countdown_ == 0) {
      probing(ctx);
      probe_countdown_ = config().probe_interval > 0 ? config().probe_interval - 1 : 0;
    } else {
      --probe_countdown_;
    }
  }
  tidy_ring();
}

// ---------------------------------------------------------------------------
// Algorithm 2 — LINEARIZE(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::linearize(sim::Context& ctx, Id id) {
  if (!is_node_id(id)) return;
  if (is_dead(id)) return;  // quarantined: neither adopt nor spread
  if (id > id_) {
    if (id < rv()) {
      if (rv() < kPosInf) send(ctx, id, kLin, rv());
      rv() = id;
      tidy_ring();
      notify_list();
      if (metrics_ != nullptr) metrics_->linearize_adoptions.add(1);
    } else {
      const Id shortcut =
          config().lrl_shortcut ? best_right_shortcut(id) : kNegInf;
      // The paper's guard is strict (m.id > p.lrl > p.r); a shortcut equal
      // to id would self-deliver a no-op, so exclude it.
      if (is_node_id(shortcut) && shortcut != id) {
        send(ctx, shortcut, kLin, id);
      } else {
        send(ctx, rv(), kLin, id);
      }
      if (metrics_ != nullptr) metrics_->linearize_forwards.add(1);
    }
  } else if (id < id_) {
    if (id > lv()) {
      if (lv() > kNegInf) send(ctx, id, kLin, lv());
      lv() = id;
      tidy_ring();
      notify_list();
      if (metrics_ != nullptr) metrics_->linearize_adoptions.add(1);
    } else {
      const Id shortcut = config().lrl_shortcut ? best_left_shortcut(id) : kNegInf;
      if (is_node_id(shortcut) && shortcut != id) {
        send(ctx, shortcut, kLin, id);
      } else {
        send(ctx, lv(), kLin, id);
      }
      if (metrics_ != nullptr) metrics_->linearize_forwards.add(1);
    }
  }
  // id == id_ : nothing to do.
}

// ---------------------------------------------------------------------------
// Algorithm 3 — RESPONDLRL(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::respond_lrl(sim::Context& ctx, Id origin) {
  if (!is_node_id(origin)) return;
  // id3 identifies the responder so the origin can match the response to
  // the right link (only needed for lrl_count > 1; harmless otherwise).
  if (lv() > kNegInf && rv() < kPosInf) {
    ctx.send(origin, sim::Message{kReslrl, lv(), rv(), id_});
  } else if (lv() > kNegInf && rv() == kPosInf) {
    // This node is a max candidate: its "right" wraps to the ring target.
    ctx.send(origin, sim::Message{kReslrl, lv(), ringv(), id_});
  } else if (lv() == kNegInf && rv() < kPosInf) {
    // Min candidate: its "left" wraps to the ring target.  (The paper prints
    // (p.ring, p.l) here — see the header comment for why that must be p.r.)
    ctx.send(origin, sim::Message{kReslrl, ringv(), rv(), id_});
  }
  // l = −∞ and r = ∞: isolated view, no response (paper omits this case too).
}

// ---------------------------------------------------------------------------
// Algorithm 4 — MOVE-FORGET(id1, id2)
// ---------------------------------------------------------------------------

void SmallWorldNode::move_forget(sim::Context& ctx, Id id1, Id id2, Id responder) {
  LongRangeLink* link = link_for_response(responder);
  if (link == nullptr) return;  // multi-link: response for a departed target
  const bool left_ok = is_node_id(id1) && !is_dead(id1);
  const bool right_ok = is_node_id(id2) && !is_dead(id2);
  if (left_ok && right_ok) {
    link->target = ctx.rng().coin() ? id1 : id2;  // each with probability 1/2
  } else if (left_ok) {
    link->target = id1;
  } else if (right_ok) {
    link->target = id2;
  } else {
    return;  // no usable candidate: keep the current link, no move happened
  }
  ++link->age;  // one move step completed
  Age& max_seen = store_->max_age(slot_);
  if (link->age > max_seen) max_seen = link->age;
  if (metrics_ != nullptr) metrics_->lrl_moves.add(1);
  if (ctx.rng().bernoulli(forget_probability(link->age, config().epsilon))) {
    link->target = id_;  // the token restarts its walk from the origin
    link->age = 0;
    ++store_->forgets(slot_);
    notify_forget();
    if (metrics_ != nullptr) {
      metrics_->lrl_forgets.add(1);
      metrics_->lrl_resets.add(1);
    }
  }
  notify_lrl();
}

// ---------------------------------------------------------------------------
// Algorithm 5 — PROBINGR(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::probing_r(sim::Context& ctx, Id target) {
  if (!is_node_id(target) || is_dead(target)) return;
  const Id shortcut = best_right_shortcut(target);
  if (is_node_id(shortcut)) {
    send(ctx, shortcut, kProbr, target);
  } else if (target >= rv()) {
    send(ctx, rv(), kProbr, target);
  } else if (id_ < target && target < rv()) {
    // Probe cannot advance: the destination lies in our gap — repair.
    if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
    linearize(ctx, target);
  }
  // else: target ≤ id_, the probe overshot (stale message) — drop.
}

// ---------------------------------------------------------------------------
// Algorithm 6 — PROBINGL(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::probing_l(sim::Context& ctx, Id target) {
  if (!is_node_id(target) || is_dead(target)) return;
  const Id shortcut = best_left_shortcut(target);
  if (is_node_id(shortcut)) {
    send(ctx, shortcut, kProbl, target);
  } else if (target <= lv()) {
    send(ctx, lv(), kProbl, target);
  } else if (id_ > target && target > lv()) {
    if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
    linearize(ctx, target);
  }
}

// ---------------------------------------------------------------------------
// Algorithm 7 — RESPONDRING(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::respond_ring(sim::Context& ctx, Id origin) {
  if (!is_node_id(origin) || origin == id_) return;
  if (origin < id_) {
    // The sender believes it is a min candidate; help it find smaller nodes
    // or walk its ring edge toward the true max.
    const Id low = min_lrl();
    const Id high = max_lrl();
    if (lv() < origin) {
      send(ctx, origin, kLin, lv());
    } else if (low < origin) {
      send(ctx, origin, kLin, low);
    } else if (high > rv()) {
      send(ctx, origin, kResring, high);
    } else {
      send(ctx, origin, kResring, rv());
    }
  } else {
    // Max candidate: symmetric.  (Paper's first branch prints p.l — must be
    // p.r; see header comment.)
    const Id low = min_lrl();
    const Id high = max_lrl();
    if (rv() > origin) {
      send(ctx, origin, kLin, rv());
    } else if (high > origin) {
      send(ctx, origin, kLin, high);
    } else if (low < lv()) {
      send(ctx, origin, kResring, low);
    } else {
      send(ctx, origin, kResring, lv());
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm 8 — UPDATERING(id)
// ---------------------------------------------------------------------------

void SmallWorldNode::update_ring(Id candidate) {
  if (!is_node_id(candidate) || is_dead(candidate)) return;
  if (lv() == kNegInf) {
    if (candidate > ringv()) {
      ringv() = candidate;
      if (metrics_ != nullptr) metrics_->ring_updates.add(1);
    }
  } else if (rv() == kPosInf) {
    if (candidate < ringv()) {
      ringv() = candidate;
      if (metrics_ != nullptr) metrics_->ring_updates.add(1);
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm 9 — SENDID()
// ---------------------------------------------------------------------------

void SmallWorldNode::send_id(sim::Context& ctx) {
  // A node missing a neighbour announces itself along its ring edge.  When
  // the ring edge is still the inert self-link (the paper leaves the unset
  // value open), the walk is bootstrapped at the node's other list
  // neighbour: UPDATERING then drives it monotonically to the true max/min.
  if (lv() > kNegInf) {
    send(ctx, lv(), kLin, id_);
  } else {
    send(ctx, ringv() != id_ ? ringv() : rv(), kRing, id_);
  }
  if (rv() < kPosInf) {
    send(ctx, rv(), kLin, id_);
  } else {
    send(ctx, ringv() != id_ ? ringv() : lv(), kRing, id_);
  }
  // Sent even when a link points home (token at home): the node answers
  // itself with its own neighbours and the walk restarts from the origin.
  if (config().move_and_forget_enabled)
    for (const LongRangeLink& link : links()) send(ctx, link.target, kInclrl, id_);
}

// ---------------------------------------------------------------------------
// In-band lookup forwarding (doc/SERVICE.md) — not a paper algorithm.  The
// greedy descent itself is Algorithms 5/6/10's; the decision is shared with
// the frozen-view evaluator via routing::select_next_hop so the two paths
// cannot drift.
// ---------------------------------------------------------------------------

void SmallWorldNode::handle_lookup(sim::Context& ctx, const sim::Message& m) {
  const Id target = m.id1;
  const Id origin = m.id2;
  const auto token = unpack_lookup_token(m.id3);
  if (!token || !is_node_id(target) || !is_node_id(origin)) return;  // garbage
  remember_contact(origin);  // live when the manager issued the attempt
  if (target == id_) {
    // Hit: echo the token unchanged — the remaining ttl lets the origin
    // compute the hop count without any per-hop state.
    ctx.send(origin, sim::Message{kLookupHit, target, origin, m.id3});
    if (metrics_ != nullptr) metrics_->service_hits.add(1);
    return;
  }
  LookupToken out = *token;
  const auto miss = [&](LookupReason reason) {
    out.reason = reason;
    ctx.send(origin,
             sim::Message{kLookupMiss, target, origin, pack_lookup_token(out)});
    if (metrics_ != nullptr) metrics_->service_misses.add(1);
  };
  if (is_dead(target)) {
    miss(LookupReason::kTargetDead);
    return;
  }
  // Passive repair.  A dropped lookup destroys the service plane's copy of
  // `target` — but an id in flight is exactly the currency Lemma 4.10's
  // connectivity preservation is proved over, and a crash can sever the
  // survivors into closed line segments whose only remaining bridges are
  // lookup targets sampled from the far side.  At every point where this
  // node would discard the id (ttl exhausted, or no live pointer at all),
  // hand it to linearization instead — adopt or forward, never drop — so
  // lookup load doubles as repair traffic.  `target` is not locally dead
  // here (checked above), so this never readopts an evicted pointer.
  const auto preserve = [&] {
    if (metrics_ != nullptr) metrics_->service_repairs.add(1);
    linearize(ctx, target);
  };
  if (token->ttl == 0) {
    if (metrics_ != nullptr) metrics_->service_ttl_drops.add(1);
    preserve();
    miss(LookupReason::kTtlExhausted);
    return;
  }
  // Candidates in the canonical l, r, ring, lrl order (next_hop.hpp).
  std::array<Id, routing::kMaxNextHopCandidates> candidates;
  std::size_t count = 0;
  candidates[count++] = lv();
  candidates[count++] = rv();
  candidates[count++] = ringv();
  for (const LongRangeLink& link : links()) {
    if (count == candidates.size()) break;
    candidates[count++] = link.target;
  }
  // Graceful degradation: suspected/quarantined hops are skipped (counted)
  // and the best remaining pointer carries the lookup around the damage.
  const auto dead = [this](Id id) {
    if (!is_dead(id)) return false;
    if (metrics_ != nullptr) metrics_->service_dead_skips.add(1);
    return true;
  };
  const routing::NextHop hop = routing::select_next_hop(
      id_, target, std::span<const Id>(candidates.data(), count), dead,
      /*allow_fallback=*/true);
  if (hop.outcome == routing::HopOutcome::kForward) {
    out.ttl = token->ttl - 1;
    ctx.send(hop.to,
             sim::Message{kLookup, target, origin, pack_lookup_token(out)});
    if (metrics_ != nullptr) metrics_->service_forwards.add(1);
    return;
  }
  if (hop.outcome == routing::HopOutcome::kTargetDead) {
    miss(LookupReason::kTargetDead);
    return;
  }
  preserve();
  miss(LookupReason::kNoProgress);
}

// ---------------------------------------------------------------------------
// Algorithm 10 — PROBING()
// ---------------------------------------------------------------------------

void SmallWorldNode::probing(sim::Context& ctx) {
  if (lv() == kNegInf || rv() == kPosInf) {
    if (is_node_id(ringv()) && ringv() != id_) {
      if (ringv() < id_) {
        if (ringv() <= lv()) {
          send(ctx, lv(), kProbl, ringv());
        } else if (id_ > ringv() && ringv() > lv()) {
          if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
          linearize(ctx, ringv());
        }
      } else {
        if (ringv() >= rv()) {
          send(ctx, rv(), kProbr, ringv());
        } else if (id_ < ringv() && ringv() < rv()) {
          if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
          linearize(ctx, ringv());
        }
      }
    }
  }
  if (!config().move_and_forget_enabled) return;
  for (std::size_t i = 0; i < links().size(); ++i) {
    const Id target = links()[i].target;
    if (!is_node_id(target) || target == id_) continue;
    if (target < id_) {
      if (target <= lv()) {
        send(ctx, lv(), kProbl, target);
      } else if (id_ > target && target > lv()) {
        if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
        linearize(ctx, target);
      }
    } else {
      if (target >= rv()) {
        send(ctx, rv(), kProbr, target);
      } else if (id_ < target && target < rv()) {
        if (metrics_ != nullptr) metrics_->probe_repairs.add(1);
        linearize(ctx, target);
      }
    }
  }
}

}  // namespace sssw::core
