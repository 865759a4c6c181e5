// experiments.hpp — the catalog of experiment descriptors.
//
// Each descriptor binds one experiment name (as written in a matrix config's
// `experiments` list) to the analysis driver that measures it, and declares
// which matrix axes the experiment actually consumes.  expand_cells()
// collapses unused axes to their defaults before hashing, so listing
// `faults` in a config never multiplies the e1-convergence cells, and the
// report stage knows which columns are meaningful per experiment.
//
// The catalog is the one definition of every experiment: the sweep runner
// (tools/sssw_sweep) executes its cells, and bench/bench_experiments.cpp is a
// table of google-benchmark rows, each a SweepCell run through the same
// descriptor.  `claim` names the paper theorem/figure the experiment checks
// (doc/BENCHMARKS.md is the human-readable catalog, and a coverage test keeps
// the two in sync).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"

namespace sssw::obs {
class Registry;
}

namespace sssw::analysis {

/// What one cell execution produced: flat named observables (the meta.json
/// `metrics` object, also the runs.csv columns).  A non-empty `error` marks
/// the cell failed; metrics gathered so far are kept for debugging.
struct CellResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::string error;

  void add(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

/// One param an experiment accepts after its name in the experiments list
/// (`e14-recovery:crash=0.25`).  An enum param (non-empty `choices`) must
/// name one of its choices; any other param is numeric and must parse in
/// full, lie in [min, max), and be a whole number when `integer` is set.
struct ParamSpec {
  std::string_view key;
  double min = 0.0;
  double max = 0.0;
  bool integer = false;
  std::span<const std::string_view> choices = {};
};

struct ExperimentDescriptor {
  std::string_view name;   ///< config-facing name, e.g. "e13-faults"
  std::string_view claim;  ///< paper theorem/figure the experiment checks
  bool uses_shape = false;
  bool uses_scheduler = false;
  bool uses_fault = false;
  bool uses_ablation = false;
  /// The params the experiment accepts; any other key is a config error.
  std::span<const ParamSpec> params;
  /// Executes one cell.  `registry`, when non-null, receives the merged
  /// per-trial obs metrics for cells whose driver exposes them (the sweep
  /// runner snapshots it into the cell's metrics.jsonl).
  CellResult (*run)(const SweepCell& cell, obs::Registry* registry);
};

/// Every registered experiment, in catalog order (E1 → E15, then A1 → A5).
std::span<const ExperimentDescriptor> all_experiments();

/// Lookup by config-facing name; nullptr when unknown.
const ExperimentDescriptor* find_experiment(std::string_view name);

/// Splits a cell's canonical params string ("k=v;k=v") into pairs.
std::vector<std::pair<std::string, std::string>> split_params(
    std::string_view params);

/// Checks one `key=value` param against the descriptor's ParamSpecs: "" when
/// the key is accepted and the value valid, else the reason it is not.
std::string check_param(const ExperimentDescriptor& experiment,
                        std::string_view key, std::string_view value);

}  // namespace sssw::analysis
