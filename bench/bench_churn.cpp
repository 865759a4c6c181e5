// bench_churn — experiments E6/E7 (DESIGN.md §3).
//
// Paper claim (Theorem 4.24): integrating a joining node and recovering from
// a leave both take O(ln^{2+ε} n) steps.  Counters:
//   rounds_mean / msgs_mean / recovered  per event type and n
// Expected shape: recovery rounds grow ~polylog in n (doubling n several
// times should multiply rounds by far less than 2× each time); recovered = 1
// for joins and ≈ 1 for leaves (leave recovery is a w.h.p. statement).
#include "analysis/churn_storm.hpp"
#include "analysis/convergence.hpp"
#include "bench_common.hpp"

namespace {

using namespace sssw;

void run_churn(benchmark::State& state, bool join) {
  const auto n = static_cast<std::size_t>(state.range(0));
  analysis::ChurnOptions options;
  options.n = n;
  options.trials = 6;
  options.base_seed = bench::kBaseSeed + n;
  options.burn_in_rounds = 4 * n;
  analysis::ChurnResult result;
  for (auto _ : state) {
    result = join ? analysis::measure_join(options) : analysis::measure_leave(options);
    options.base_seed += options.trials;
  }
  state.counters["rounds_mean"] = result.recovery_rounds.mean;
  state.counters["rounds_p90"] = result.recovery_rounds.p90;
  state.counters["msgs_mean"] = result.recovery_messages.mean;
  state.counters["recovered"] = result.recovered;
  state.counters["n"] = static_cast<double>(n);
}

void BM_Churn_Join(benchmark::State& state) { run_churn(state, true); }
void BM_Churn_Leave(benchmark::State& state) { run_churn(state, false); }

#define SSSW_CHURN_ARGS \
  ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond)->Iterations(1)

BENCHMARK(BM_Churn_Join) SSSW_CHURN_ARGS;
BENCHMARK(BM_Churn_Leave) SSSW_CHURN_ARGS;

void BM_Churn_Storm(benchmark::State& state) {
  // Overlapping churn: one event every `interval` rounds with no recovery
  // wait.  Arg = interval; smaller is harsher.  Reports survival and the
  // quiesce time once the storm stops — the w.h.p. caveat of Thm 4.24 made
  // measurable.
  const auto interval = static_cast<std::size_t>(state.range(0));
  double survived = 0, quiesce = 0, msg_rate = 0;
  constexpr int kTrials = 4;
  analysis::ChurnStormOptions options;
  options.n = 96;
  options.events = 24;
  options.event_interval = interval;
  for (auto _ : state) {
    survived = quiesce = msg_rate = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      options.seed = bench::kBaseSeed + interval * 100 + trial;
      const auto result = analysis::run_churn_storm(options);
      survived += result.survived ? 1.0 : 0.0;
      quiesce += static_cast<double>(result.quiesce_rounds);
      msg_rate += result.messages_per_node_round;
    }
  }
  state.counters["survived"] = survived / kTrials;
  state.counters["quiesce_rounds"] = quiesce / kTrials;
  state.counters["msgs_per_node_round"] = msg_rate / kTrials;
  state.counters["interval"] = static_cast<double>(interval);
}
BENCHMARK(BM_Churn_Storm)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Churn_LeaveVsCrash(benchmark::State& state) {
  // ISSUE 5 satellite: same stabilized network, same victim — repair rounds
  // for a detected leave() (the paper's §IV.G fail-stop, neighbours learn
  // instantly) against a crash-stop healed by the active probe/ack detector.
  // The delta is the detection latency the probe/ack round-trips cost.
  const auto n = static_cast<std::size_t>(state.range(0));
  double leave_sum = 0, crash_sum = 0, leave_healed = 0, crash_healed = 0;
  constexpr int kTrials = 4;
  for (auto _ : state) {
    leave_sum = crash_sum = leave_healed = crash_healed = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const std::uint64_t seed = bench::kBaseSeed + n + trial;
      for (const bool use_crash : {false, true}) {
        core::Config config;
        config.detector.enabled = use_crash;  // leave needs no detection
        core::SmallWorldNetwork network = bench::stabilized(n, seed, 4 * n, config);
        util::Rng rng(seed ^ 0x6c766373ull);  // same victim both ways
        const auto ids = network.engine().id_span();
        const sim::Id victim = ids[rng.below(ids.size())];
        if (use_crash)
          network.crash(victim);
        else
          network.leave(victim);
        const auto rounds = network.run_until_sorted_ring(400 * n + 4000);
        if (!rounds.has_value()) continue;
        (use_crash ? crash_healed : leave_healed) += 1.0;
        (use_crash ? crash_sum : leave_sum) += static_cast<double>(*rounds);
      }
    }
  }
  const double leave_mean = leave_healed > 0 ? leave_sum / leave_healed : -1.0;
  const double crash_mean = crash_healed > 0 ? crash_sum / crash_healed : -1.0;
  state.counters["leave_rounds_mean"] = leave_mean;
  state.counters["crash_rounds_mean"] = crash_mean;
  state.counters["detection_latency"] =
      leave_mean >= 0 && crash_mean >= 0 ? crash_mean - leave_mean : -1.0;
  state.counters["leave_healed"] = leave_healed / kTrials;
  state.counters["crash_healed"] = crash_healed / kTrials;
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_Churn_LeaveVsCrash)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
