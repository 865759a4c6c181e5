#include "reference.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "timing.hpp"

namespace perfbench {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

volatile std::uint64_t sink;

}  // namespace

double run_reference() {
  // Hash-map inserts and lookups and a sort: the mix of hashing, pointer
  // chasing, branches and allocation that the simulator's speed follows
  // most closely of the kernels tried (a pure arithmetic loop and a
  // pointer chase tracked it far less).  Allocations come from an arena of
  // its own, so the simulator's heap cannot change the kernel's work.
  static std::vector<std::byte> arena(16u << 20);
  const double start = wall_now();
  std::pmr::monotonic_buffer_resource memory(arena.data(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::uint64_t state = 7;
  std::pmr::unordered_map<std::uint64_t, std::uint32_t> map(&memory);
  for (std::uint32_t i = 0; i < 40000; ++i) map[splitmix(state) & 0xfffff] = i;
  std::uint64_t sum = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto it = map.find(splitmix(state) & 0xfffff);
    if (it != map.end()) sum += it->second;
  }
  std::pmr::vector<std::uint64_t> keys(100000, &memory);
  for (auto& key : keys) key = splitmix(state);
  std::sort(keys.begin(), keys.end());
  sink = sum + keys[keys.size() / 2];
  return wall_now() - start;
}

}  // namespace perfbench
