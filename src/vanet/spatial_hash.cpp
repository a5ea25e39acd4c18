#include "vanet/spatial_hash.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace sh::vanet {

SpatialHash::SpatialHash(double cell_m) : cell_m_(cell_m) {
  assert(cell_m > 0.0);
}

std::uint64_t SpatialHash::pack(std::int64_t ix, std::int64_t iy) noexcept {
  // Bias into unsigned halves; cities are nowhere near 2^31 cells across.
  constexpr std::int64_t kBias = std::int64_t{1} << 31;
  return (static_cast<std::uint64_t>(iy + kBias) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(ix + kBias));
}

std::int64_t SpatialHash::cell_of(double v) const noexcept {
  return static_cast<std::int64_t>(std::floor(v / cell_m_));
}

void SpatialHash::build(const std::vector<VehicleState>& snapshot) {
  const std::size_t n = snapshot.size();
  std::vector<std::uint64_t> keys(n);  // Cell key of each vehicle id.
  std::uint64_t varying = 0;           // Key bits that differ between ids.
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = pack(cell_of(snapshot[i].position.x),
                   cell_of(snapshot[i].position.y));
    varying |= keys[i] ^ keys[0];
  }
  // LSD radix sort of the ids by key, one byte a pass, skipping bytes no
  // key differs in (a 100k-vehicle metro spans ~950 cells a side, so four
  // of the eight bytes vary). Each pass is stable and the ids start
  // ascending, so members come out grouped by cell in key order with ids
  // ascending inside each cell.
  members_.resize(n);
  for (std::size_t i = 0; i < n; ++i) members_[i] = static_cast<int>(i);
  std::vector<int> sorted(n);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::size_t start[257] = {};
    for (const int id : members_) {
      ++start[((keys[static_cast<std::size_t>(id)] >> shift) & 0xFF) + 1];
    }
    for (int byte = 0; byte < 256; ++byte) start[byte + 1] += start[byte];
    for (const int id : members_) {
      sorted[start[(keys[static_cast<std::size_t>(id)] >> shift) & 0xFF]++] =
          id;
    }
    members_.swap(sorted);
  }

  cell_keys_.clear();
  cell_begin_.clear();
  for (std::size_t m = 0; m < n; ++m) {
    const std::uint64_t key = keys[static_cast<std::size_t>(members_[m])];
    if (cell_keys_.empty() || key != cell_keys_.back()) {
      cell_keys_.push_back(key);
      cell_begin_.push_back(m);
    }
  }
  cell_begin_.push_back(n);
}

std::vector<VehiclePair> SpatialHash::pairs_within(
    const std::vector<VehicleState>& snapshot, double range_m) const {
  assert(range_m <= cell_m_);
  std::vector<VehiclePair> out;
  const auto test = [&](int a, int b) {
    if (a > b) std::swap(a, b);
    if (distance(snapshot[static_cast<std::size_t>(a)].position,
                 snapshot[static_cast<std::size_t>(b)].position) <= range_m) {
      out.emplace_back(a, b);
    }
  };
  const auto cross = [&](std::size_t c, std::size_t d) {
    for (std::size_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
      for (std::size_t j = cell_begin_[d]; j < cell_begin_[d + 1]; ++j) {
        test(members_[i], members_[j]);
      }
    }
  };

  // Half stencil: cell c meets itself, its right neighbour (the next key,
  // when that is pack(ix + 1, iy)) and the three cells above it, which are
  // the keys in [pack(ix - 1, iy + 1), pack(ix + 1, iy + 1)]. Every other
  // neighbouring cell pair is met from its other cell, so each pair is
  // tested once. The range's lower end grows with c, so one cursor that
  // only moves forward finds it.
  constexpr std::uint64_t kRow = std::uint64_t{1} << 32;
  const std::size_t cells = cell_keys_.size();
  std::size_t up = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    const std::uint64_t key = cell_keys_[c];
    for (std::size_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
      for (std::size_t j = i + 1; j < cell_begin_[c + 1]; ++j) {
        test(members_[i], members_[j]);
      }
    }
    if (c + 1 < cells && cell_keys_[c + 1] == key + 1) cross(c, c + 1);
    while (up < cells && cell_keys_[up] < key + kRow - 1) ++up;
    for (std::size_t d = up; d < cells && cell_keys_[d] <= key + kRow + 1;
         ++d) {
      cross(c, d);
    }
  }
  // The walk finds pairs in cell order; consumers need (a, b) order.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sh::vanet
