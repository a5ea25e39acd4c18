// Uniform-grid spatial index over vehicle positions.
//
// The ≤100 m link rule makes proximity the hot query of every vehicular
// experiment; the O(n²) all-pairs scan that was fine for the paper's
// 100-taxi testbed is hopeless at city scale. This index buckets vehicles
// into square cells whose side equals the query radius, so a vehicle's
// neighbors can only live in its own cell or the eight surrounding ones.
// build() radix-sorts the vehicles by cell; pairs_within then walks the
// occupied cells once in key order and pairs each cell with itself, its
// right neighbour and the three cells above it — a half stencil that meets
// every neighbouring cell pair exactly once — so the whole pair set costs
// O(n + pairs) with no per-vehicle lookups.
//
// Determinism contract (DESIGN.md "Determinism contract"): the pair list is
// returned sorted by (a, b) vehicle id, whatever order the walk finds the
// pairs in.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "vanet/traffic_sim.h"

namespace sh::vanet {

/// An unordered-in-meaning but deterministically ordered (a < b) vehicle
/// pair within query range.
using VehiclePair = std::pair<int, int>;

class SpatialHash {
 public:
  /// `cell_m` is the grid pitch; queries are exact for any radius <= cell_m
  /// (the stencil below assumes it). The usual choice is cell_m == the link
  /// radius.
  explicit SpatialHash(double cell_m);

  /// Rebuilds the index over `snapshot` (vehicle id = index).
  void build(const std::vector<VehicleState>& snapshot);

  /// Every pair (a < b) with distance(a, b) <= range_m, sorted by (a, b).
  /// Requires range_m <= cell_m and a preceding build() over the same
  /// snapshot.
  std::vector<VehiclePair> pairs_within(
      const std::vector<VehicleState>& snapshot, double range_m) const;

  double cell_m() const noexcept { return cell_m_; }
  std::size_t num_cells() const noexcept { return cell_keys_.size(); }

 private:
  /// Packed cell coordinate; lexicographic (iy, ix) order, and
  /// pack(ix + dx, iy + dy) == pack(ix, iy) + dy * 2^32 + dx.
  static std::uint64_t pack(std::int64_t ix, std::int64_t iy) noexcept;
  std::int64_t cell_of(double v) const noexcept;

  double cell_m_;
  /// Vehicle ids of cell c: members_[cell_begin_[c] .. cell_begin_[c+1]),
  /// sorted ascending.
  std::vector<std::uint64_t> cell_keys_;  ///< Sorted unique occupied cells.
  std::vector<std::size_t> cell_begin_;   ///< Offsets into members_ (+1 entry).
  std::vector<int> members_;              ///< Vehicle ids grouped by cell.
};

}  // namespace sh::vanet
