// id_index.hpp — the engine's identifier → slot table.
//
// Flat open addressing: one power-of-two array of (id, slot) cells, linear
// probing, backward-shift erase (no tombstones, so a probe never walks past
// the first empty cell), grown at 3/4 load.  Every send resolves its
// destination here, so a lookup costs one hash and usually one cache line —
// not the node hop of std::unordered_map.  Lookups are const and may run
// concurrently; inserts and erases may not.
//
// Keys are compared and hashed by *value*: -0.0 is stored, hashed and found
// as +0.0, since 0.0 == -0.0 names the same identifier.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/id.hpp"

namespace sssw::sim {

class IdIndex {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// One multiply-xorshift over the bits of the canonical (+0.0 for -0.0)
  /// id.  Public so tests can place keys at chosen home cells.
  static std::uint64_t hash(Id id) noexcept {
    std::uint64_t x = std::bit_cast<std::uint64_t>(id + 0.0);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }

  /// The slot stored for `id`, or kNone.
  std::uint32_t find(Id id) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Cell& cell = cells_[i];
      if (cell.slot == kNone) return kNone;
      if (cell.id == id) return cell.slot;
    }
  }

  bool contains(Id id) const noexcept { return find(id) != kNone; }

  /// Maps `id` (which must be absent) to `slot` (which must not be kNone).
  void insert(Id id, std::uint32_t slot) {
    if ((size_ + 1) * 4 > cells_.size() * 3) grow();
    std::size_t i = home(id);
    while (cells_[i].slot != kNone) i = (i + 1) & mask_;
    cells_[i] = Cell{id + 0.0, slot};
    ++size_;
  }

  /// Removes `id`; false if it was absent.  Later members of the probe run
  /// shift back into the hole unless it would move them before their home.
  bool erase(Id id) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = home(id);
    for (;; hole = (hole + 1) & mask_) {
      if (cells_[hole].slot == kNone) return false;
      if (cells_[hole].id == id) break;
    }
    for (std::size_t i = (hole + 1) & mask_; cells_[i].slot != kNone;
         i = (i + 1) & mask_) {
      // Cell i may fill the hole iff the hole lies in [home, i] cyclically.
      if (((i - home(cells_[i].id)) & mask_) >= ((i - hole) & mask_)) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole].slot = kNone;
    --size_;
    return true;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return cells_.size(); }

 private:
  struct Cell {
    Id id = 0.0;
    std::uint32_t slot = kNone;
  };

  std::size_t home(Id id) const noexcept { return hash(id) & mask_; }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.empty() ? 16 : old.size() * 2, Cell{});
    mask_ = cells_.size() - 1;
    size_ = 0;
    for (const Cell& cell : old)
      if (cell.slot != kNone) insert(cell.id, cell.slot);
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sssw::sim
