// workloads.hpp — the benchmark's three workloads and their metrics.
//
// Every workload drives only public APIs (core::SmallWorldNetwork,
// topology::make_initial_state, service::LookupManager, obs::Registry) and
// runs the same phases: generate ids and the initial state, build the
// network, burn in, then a measured phase of warm rounds, an optional
// simultaneous crash, and (for time-to-solution workloads) rounds until the
// sorted ring holds.  A phase a workload does not need runs empty, so every
// layer metric exists on every workload.  README.md explains the choices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's base experiment seed (bench::kBaseSeed, IPPS 2012).
inline constexpr std::uint64_t kBaseSeed = 20120521;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        ///< end-to-end, or per-layer when traced
  std::vector<std::string> problems;  ///< failed output checks, one per line
  std::string report;                 ///< human-readable summary / layer table
  std::size_t shards = 1;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kBaseSeed;
  double seconds = 20.0;  ///< measure until this much time has passed
  bool trace = false;     ///< per-layer run (spans on) instead of end-to-end
  std::string spans_path; ///< traced runs write their spans here ("" = don't)
};

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Outcome run_workload(const RunOptions& options);

}  // namespace perfbench
