// sssw_e2e — runs one workload of the end-to-end benchmark and prints its
// result as the last line of standard output (see README.md).
//
//   sssw_e2e --workload converge|steady_sharded|lookup_crash
//            [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//            [--git-sha SHA]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "timing.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "sssw_e2e: %s\nusage: sssw_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--git-sha SHA]\n",
               error.c_str());
  std::exit(2);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds >= 0)) usage("--seconds must be >= 0");

  // Numbers from an unoptimised or sanitized binary say nothing about the
  // simulator's speed; refuse to report them.
  if (!perfbench::kOptimized || perfbench::kSanitized) {
    std::fprintf(stderr, "sssw_e2e: refusing to run: built %s%s\n",
                 perfbench::kOptimized ? "" : "without optimisation",
                 perfbench::kSanitized ? " with a sanitizer" : "");
    return 3;
  }

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sssw_e2e: %s\n", error.what());
    return 1;
  }
  for (auto& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      outcome.problems.push_back(metric.name + " is not finite");
      outcome.correct = false;
      metric.value = 0.0;
    }
  }

  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"shards\": %zu, \"seed\": %llu, "
      "\"trace\": %d}}\n",
      json_escape(git_sha).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, json_escape(options.workload).c_str(),
      outcome.shards, static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0);
  std::printf("%s\n", outcome.report.c_str());
  for (const auto& problem : outcome.problems)
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  for (const auto& metric : outcome.metrics)
    std::printf("%-32s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());

  std::string result = "{\"correct\": ";
  result += outcome.correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(outcome.attempted);
  result += ", \"failed\": " + std::to_string(outcome.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& metric = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    if (i > 0) result += ", ";
    result += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              metric.unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
