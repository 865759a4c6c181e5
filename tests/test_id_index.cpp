// Tests for sim/id_index: the engine's flat id → slot table, checked against
// std::unordered_map and on the probe-chain cases that linear probing with
// backward-shift erase gets wrong most easily.
#include "sim/id_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace sssw::sim {
namespace {

/// The first `count` ids of the form k / 2^20 whose home cell in a table of
/// `capacity` cells is `home`.
std::vector<Id> ids_with_home(std::size_t home, std::size_t capacity,
                              std::size_t count, std::size_t skip = 0) {
  std::vector<Id> ids;
  for (std::uint64_t k = 1; ids.size() < count; ++k) {
    const Id id = static_cast<double>(k) / (1 << 20);
    if ((IdIndex::hash(id) & (capacity - 1)) != home) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    ids.push_back(id);
  }
  return ids;
}

TEST(IdIndex, EmptyTableFindsNothing) {
  IdIndex index;
  EXPECT_EQ(index.find(0.5), IdIndex::kNone);
  EXPECT_FALSE(index.erase(0.5));
  EXPECT_EQ(index.size(), 0u);
}

TEST(IdIndex, ChainWrapsAroundTheTableEnd) {
  // Homes 15, 15, 0, 1 in a 16-cell table occupy cells 15, 0, 1, 2.
  IdIndex index;
  const std::vector<Id> last = ids_with_home(15, 16, 2);
  const Id zero_home = ids_with_home(0, 16, 1)[0];
  const Id one_home = ids_with_home(1, 16, 1)[0];
  index.insert(last[0], 10);
  index.insert(last[1], 11);
  index.insert(zero_home, 12);
  index.insert(one_home, 13);
  ASSERT_EQ(index.capacity(), 16u);
  EXPECT_EQ(index.find(last[0]), 10u);
  EXPECT_EQ(index.find(last[1]), 11u);
  EXPECT_EQ(index.find(zero_home), 12u);
  EXPECT_EQ(index.find(one_home), 13u);
  // A miss whose home is inside the run walks past the wrap to cell 3.
  EXPECT_EQ(index.find(ids_with_home(15, 16, 1, 2)[0]), IdIndex::kNone);

  // Erase from the middle of the chain (cell 0): the later members shift
  // back across the wrap and stay findable.
  ASSERT_TRUE(index.erase(last[1]));
  EXPECT_EQ(index.find(last[1]), IdIndex::kNone);
  EXPECT_EQ(index.find(last[0]), 10u);
  EXPECT_EQ(index.find(zero_home), 12u);
  EXPECT_EQ(index.find(one_home), 13u);
  // Erase the chain head (cell 15): a member homed at 0 must not move to 15.
  ASSERT_TRUE(index.erase(last[0]));
  EXPECT_EQ(index.find(zero_home), 12u);
  EXPECT_EQ(index.find(one_home), 13u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_FALSE(index.erase(last[0]));
}

TEST(IdIndex, ReinsertAfterEraseTakesTheNewSlot) {
  IdIndex index;
  const std::vector<Id> ids = ids_with_home(7, 16, 3);
  for (std::uint32_t i = 0; i < 3; ++i) index.insert(ids[i], i);
  ASSERT_TRUE(index.erase(ids[1]));
  index.insert(ids[1], 42);
  EXPECT_EQ(index.find(ids[0]), 0u);
  EXPECT_EQ(index.find(ids[1]), 42u);
  EXPECT_EQ(index.find(ids[2]), 2u);
  EXPECT_EQ(index.size(), 3u);
}

TEST(IdIndex, NegativeZeroIsZero) {
  IdIndex index;
  index.insert(0.0, 5);
  EXPECT_EQ(index.find(-0.0), 5u);
  ASSERT_TRUE(index.erase(-0.0));
  EXPECT_EQ(index.find(0.0), IdIndex::kNone);
  index.insert(-0.0, 6);
  EXPECT_EQ(index.find(0.0), 6u);
}

TEST(IdIndex, GrowsUnderLoadAndKeepsEveryKey) {
  IdIndex index;
  util::Rng rng(11);
  std::vector<Id> ids;
  for (std::uint32_t i = 0; i < 100000; ++i) {
    ids.push_back(rng.uniform());
    if (index.contains(ids.back())) {
      ids.pop_back();
      continue;
    }
    index.insert(ids.back(), static_cast<std::uint32_t>(ids.size() - 1));
    ASSERT_LE(index.size() * 4, index.capacity() * 3);
  }
  EXPECT_EQ(index.size(), ids.size());
  EXPECT_EQ(index.capacity() & (index.capacity() - 1), 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(index.find(ids[i]), i);
  for (std::size_t i = 0; i < ids.size(); i += 2) ASSERT_TRUE(index.erase(ids[i]));
  for (std::size_t i = 0; i < ids.size(); ++i)
    ASSERT_EQ(index.find(ids[i]), i % 2 == 0 ? IdIndex::kNone : i);
}

TEST(IdIndex, RandomChurnMatchesUnorderedMap) {
  // A small key pool keeps the table dense and makes erase/re-insert of the
  // same key common; every operation is mirrored into the reference map.
  util::Rng rng(20120521);
  std::vector<Id> pool;
  for (int i = 0; i < 3000; ++i) pool.push_back(rng.uniform());
  IdIndex index;
  std::unordered_map<Id, std::uint32_t> reference;
  for (std::uint32_t op = 0; op < 300000; ++op) {
    const Id id = pool[rng.below(pool.size())];
    const auto it = reference.find(id);
    const std::uint32_t expected = it == reference.end() ? IdIndex::kNone : it->second;
    ASSERT_EQ(index.find(id), expected) << "op " << op;
    if (rng.below(2) == 0) {
      if (it == reference.end()) {
        index.insert(id, op);
        reference.emplace(id, op);
      }
    } else {
      ASSERT_EQ(index.erase(id), it != reference.end()) << "op " << op;
      if (it != reference.end()) reference.erase(it);
    }
    ASSERT_EQ(index.size(), reference.size());
  }
  for (const Id id : pool) {
    const auto it = reference.find(id);
    EXPECT_EQ(index.find(id), it == reference.end() ? IdIndex::kNone : it->second);
  }
}

}  // namespace
}  // namespace sssw::sim
