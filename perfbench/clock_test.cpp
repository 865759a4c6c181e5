// clock_test — checks the benchmark's own clocks (timing.hpp).
//
// A sharded round does work on the pool's worker threads, so the process
// CPU clock must read more than the calling thread's CPU clock over it.  A
// benchmark that used the calling thread's clock for a sharded run would
// leave the worker lanes out, and this test would then catch the two
// clocks being confused.  Exits 0 on success, 1 on a failed check.
#include <cstdio>

#include "core/network.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

int main() {
  using namespace sssw;
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAILED", what);
    if (!ok) ++failures;
  };

  util::Rng rng(7);
  core::NetworkOptions options;
  options.shards = 4;
  core::SmallWorldNetwork net =
      core::make_stable_ring(core::random_ids(4096, rng), options);

  const double wall0 = perfbench::wall_now();
  const double process0 = perfbench::process_cpu_now();
  const double thread0 = perfbench::thread_cpu_now();
  net.run_rounds(4);
  const double thread_cpu = perfbench::thread_cpu_now() - thread0;
  const double process_cpu = perfbench::process_cpu_now() - process0;
  const double wall = perfbench::wall_now() - wall0;
  std::printf("4 rounds, n=4096, shards=4: wall %.6f s, process cpu %.6f s, "
              "thread cpu %.6f s\n",
              wall, process_cpu, thread_cpu);

  check(wall > 0.0, "steady wall clock advances over a round");
  check(thread_cpu > 0.0, "calling thread's CPU clock advances over a round");
  check(process_cpu > thread_cpu,
        "process CPU time exceeds the calling thread's over a shards=4 round");
  check(perfbench::peak_rss_mb() > 0.0, "peak RSS is reported");
  return failures == 0 ? 0 : 1;
}
