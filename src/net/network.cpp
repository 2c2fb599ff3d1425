#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "geom/aabb.hpp"
#include "geom/grid.hpp"
#include "obs/trace.hpp"

namespace ballfit::net {
namespace {

/// Dense cell grid anchored at the AABB minimum, cell edge = radio range.
/// Unlike geom::SpatialGrid this is a flat counting-sort layout (no hash
/// map), so bucketing and the 27-cell sweep are cache-friendly and safe to
/// query from many threads.
struct DenseCellGrid {
  geom::Vec3 origin{};
  double cell = 1.0;
  std::size_t nx = 1, ny = 1, nz = 1;
  std::vector<std::uint32_t> starts;  // num_cells + 1
  std::vector<NodeId> nodes;          // bucketed ids, ascending within a cell

  std::size_t axis_cell(double coord, double min_coord, std::size_t k) const {
    const double t = (coord - min_coord) / cell;
    auto c = static_cast<std::ptrdiff_t>(t);
    if (c < 0) c = 0;
    if (static_cast<std::size_t>(c) >= k) c = static_cast<std::ptrdiff_t>(k) - 1;
    return static_cast<std::size_t>(c);
  }

  std::size_t cell_index(const geom::Vec3& p) const {
    const std::size_t cx = axis_cell(p.x, origin.x, nx);
    const std::size_t cy = axis_cell(p.y, origin.y, ny);
    const std::size_t cz = axis_cell(p.z, origin.z, nz);
    return (cz * ny + cy) * nx + cx;
  }
};

}  // namespace

Network::Network(std::vector<geom::Vec3> positions,
                 std::vector<bool> ground_truth_boundary, double radio_range,
                 unsigned build_threads)
    : positions_(std::move(positions)),
      truth_boundary_(std::move(ground_truth_boundary)),
      radio_range_(radio_range) {
  BALLFIT_REQUIRE(radio_range_ > 0.0, "radio range must be positive");
  BALLFIT_REQUIRE(truth_boundary_.size() == positions_.size(),
                  "ground truth label count must match node count");
  num_truth_ = static_cast<std::size_t>(
      std::count(truth_boundary_.begin(), truth_boundary_.end(), true));
  build_adjacency(build_threads == 0 ? default_threads() : build_threads);
}

void Network::build_adjacency(unsigned threads) {
  BALLFIT_SPAN("net.build");
  const std::size_t n = positions_.size();
  offsets_.assign(n + 1, 0);
  adjacency_.clear();
  if (n == 0) return;

  const double r = radio_range_;
  const double r2 = r * r;

  geom::Aabb box;
  for (const geom::Vec3& p : positions_) box.expand(p);
  const geom::Vec3 ext = box.extent();
  const auto cells_along = [&](double e) {
    return static_cast<std::size_t>(std::floor(e / r)) + 1;
  };
  const std::size_t nx = cells_along(ext.x);
  const std::size_t ny = cells_along(ext.y);
  const std::size_t nz = cells_along(ext.z);

  // The dense grid pays O(num_cells) memory. For the uniform-density
  // scenes we build, num_cells is within a small factor of n; a sparse or
  // stretched point set (cells >> nodes) falls back to the hash grid.
  const bool dense_ok = nx < (std::size_t{1} << 20) &&
                        ny < (std::size_t{1} << 20) &&
                        nz < (std::size_t{1} << 20) &&
                        nx * ny * nz <= 64 + 8 * n;

  // Two passes either way: count row degrees, prefix-sum into offsets_,
  // then fill + sort each row. Both passes parallelize over nodes (writes
  // are row-private) and the result is byte-identical for any thread count.
  std::vector<std::uint32_t> deg(n, 0);

  if (dense_ok) {
    DenseCellGrid grid;
    grid.origin = box.min;
    grid.cell = r;
    grid.nx = nx;
    grid.ny = ny;
    grid.nz = nz;
    const std::size_t num_cells = nx * ny * nz;
    grid.starts.assign(num_cells + 1, 0);
    std::vector<std::uint32_t> cell_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::uint32_t>(grid.cell_index(positions_[i]));
      cell_of[i] = c;
      ++grid.starts[c + 1];
    }
    for (std::size_t c = 0; c < num_cells; ++c) {
      grid.starts[c + 1] += grid.starts[c];
    }
    grid.nodes.resize(n);
    {
      std::vector<std::uint32_t> cursor(grid.starts.begin(),
                                        grid.starts.end() - 1);
      for (std::size_t i = 0; i < n; ++i) {
        grid.nodes[cursor[cell_of[i]]++] = static_cast<NodeId>(i);
      }
    }

    const auto for_each_near = [&](std::size_t i, auto&& fn) {
      const geom::Vec3& p = positions_[i];
      const std::size_t cx = grid.axis_cell(p.x, grid.origin.x, nx);
      const std::size_t cy = grid.axis_cell(p.y, grid.origin.y, ny);
      const std::size_t cz = grid.axis_cell(p.z, grid.origin.z, nz);
      const std::size_t x0 = cx == 0 ? 0 : cx - 1;
      const std::size_t y0 = cy == 0 ? 0 : cy - 1;
      const std::size_t z0 = cz == 0 ? 0 : cz - 1;
      const std::size_t x1 = std::min(cx + 1, nx - 1);
      const std::size_t y1 = std::min(cy + 1, ny - 1);
      const std::size_t z1 = std::min(cz + 1, nz - 1);
      for (std::size_t z = z0; z <= z1; ++z)
        for (std::size_t y = y0; y <= y1; ++y)
          for (std::size_t x = x0; x <= x1; ++x) {
            const std::size_t c = (z * ny + y) * nx + x;
            for (std::uint32_t k = grid.starts[c]; k < grid.starts[c + 1];
                 ++k) {
              const NodeId j = grid.nodes[k];
              if (j != i && positions_[j].distance_sq_to(p) <= r2) fn(j);
            }
          }
    };

    parallel_for(
        n,
        [&](std::size_t i) {
          std::uint32_t d = 0;
          for_each_near(i, [&](NodeId) { ++d; });
          deg[i] = d;
        },
        threads);
    for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] = offsets_[i] + deg[i];
    adjacency_.resize(offsets_[n]);
    parallel_for(
        n,
        [&](std::size_t i) {
          NodeId* row = adjacency_.data() + offsets_[i];
          NodeId* out = row;
          for_each_near(i, [&](NodeId j) { *out++ = j; });
          std::sort(row, out);
        },
        threads);
    return;
  }

  geom::SpatialGrid grid(positions_, r);
  parallel_for(
      n,
      [&](std::size_t i) {
        std::uint32_t d = 0;
        grid.for_each_in_radius(positions_[i], r, [&](std::uint32_t j) {
          if (j != i) ++d;
        });
        deg[i] = d;
      },
      threads);
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] = offsets_[i] + deg[i];
  adjacency_.resize(offsets_[n]);
  parallel_for(
      n,
      [&](std::size_t i) {
        NodeId* row = adjacency_.data() + offsets_[i];
        NodeId* out = row;
        grid.for_each_in_radius(positions_[i], r, [&](std::uint32_t j) {
          if (j != i) *out++ = static_cast<NodeId>(j);
        });
        std::sort(row, out);
      },
      threads);
}

Network::Subnetwork Network::induced_subnetwork(
    std::span<const NodeId> nodes) const {
  const std::size_t n = num_nodes();
  const std::size_t m = nodes.size();
  for (std::size_t k = 0; k < m; ++k) {
    BALLFIT_REQUIRE(nodes[k] < n, "induced_subnetwork: node id out of range");
    BALLFIT_REQUIRE(k == 0 || nodes[k - 1] < nodes[k],
                    "induced_subnetwork: node ids must be sorted and unique");
  }

  Subnetwork out;
  out.to_global.assign(nodes.begin(), nodes.end());
  Network& sub = out.net;
  sub.radio_range_ = radio_range_;
  sub.positions_.reserve(m);
  sub.truth_boundary_.reserve(m);
  sub.external_ids_.reserve(m);
  for (NodeId g : nodes) {
    sub.positions_.push_back(positions_[g]);
    sub.truth_boundary_.push_back(truth_boundary_[g]);
    sub.external_ids_.push_back(external_id(g));
  }
  sub.num_truth_ = static_cast<std::size_t>(std::count(
      sub.truth_boundary_.begin(), sub.truth_boundary_.end(), true));

  // Row i of the subgraph = parent row of nodes[i] ∩ nodes, remapped to
  // local ids through a dense parent -> local table, so the extraction is
  // linear in the members' degree sum. Local ids are increasing in parent
  // ids, so remapped rows stay sorted without a separate sort pass.
  std::vector<NodeId> local_of(n, kInvalidNode);
  for (std::size_t i = 0; i < m; ++i) {
    local_of[nodes[i]] = static_cast<NodeId>(i);
  }
  sub.offsets_.assign(m + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t d = 0;
    for (NodeId g : neighbors(nodes[i])) d += local_of[g] != kInvalidNode;
    sub.offsets_[i + 1] = sub.offsets_[i] + d;
  }
  sub.adjacency_.resize(sub.offsets_[m]);
  for (std::size_t i = 0; i < m; ++i) {
    NodeId* out_row = sub.adjacency_.data() + sub.offsets_[i];
    for (NodeId g : neighbors(nodes[i])) {
      const NodeId l = local_of[g];
      if (l != kInvalidNode) *out_row++ = l;
    }
  }
  return out;
}

void Network::apply_moves(std::span<const NodeMove> moves) {
  if (moves.empty()) return;
  const std::size_t n = positions_.size();
  for (const NodeMove& m : moves) {
    BALLFIT_REQUIRE(m.node < n, "NodeMove id out of range");
  }
  {
    std::vector<NodeId> ids;
    ids.reserve(moves.size());
    for (const NodeMove& m : moves) ids.push_back(m.node);
    std::sort(ids.begin(), ids.end());
    BALLFIT_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                    "duplicate node id in NodeMove batch");
  }

  // A row changes only when a moved node enters or leaves it: distances
  // between two unmoved nodes are untouched. Affected = moved ∪ their old
  // neighbors ∪ their new neighbors; every other row is kept verbatim.
  std::vector<char> affected(n, 0);
  for (const NodeMove& m : moves) {
    affected[m.node] = 1;
    for (NodeId j : neighbors(m.node)) affected[j] = 1;
  }
  for (const NodeMove& m : moves) positions_[m.node] = m.new_position;

  geom::SpatialGrid grid(positions_, radio_range_);
  for (const NodeMove& m : moves) {
    grid.for_each_in_radius(positions_[m.node], radio_range_,
                            [&](std::uint32_t j) { affected[j] = 1; });
  }

  std::vector<std::vector<NodeId>> rebuilt(n);
  std::size_t total = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!affected[i]) {
      total += degree(i);
      continue;
    }
    auto& row = rebuilt[i];
    grid.for_each_in_radius(positions_[i], radio_range_,
                            [&](std::uint32_t j) {
                              if (j != i) row.push_back(j);
                            });
    std::sort(row.begin(), row.end());
    total += row.size();
  }

  std::vector<std::size_t> new_offsets(n + 1, 0);
  std::vector<NodeId> new_adjacency(total);
  std::size_t cursor = 0;
  for (NodeId i = 0; i < n; ++i) {
    new_offsets[i] = cursor;
    if (affected[i]) {
      std::copy(rebuilt[i].begin(), rebuilt[i].end(),
                new_adjacency.begin() + static_cast<std::ptrdiff_t>(cursor));
      cursor += rebuilt[i].size();
    } else {
      const auto nb = neighbors(i);
      std::copy(nb.begin(), nb.end(),
                new_adjacency.begin() + static_cast<std::ptrdiff_t>(cursor));
      cursor += nb.size();
    }
  }
  new_offsets[n] = cursor;
  offsets_ = std::move(new_offsets);
  adjacency_ = std::move(new_adjacency);
}

bool Network::are_neighbors(NodeId i, NodeId j) const {
  const auto nb = neighbors(i);
  return std::binary_search(nb.begin(), nb.end(), j);
}

double Network::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(num_nodes());
}

std::size_t Network::min_degree() const {
  std::size_t best = num_nodes() == 0 ? 0 : degree(0);
  for (NodeId i = 0; i < num_nodes(); ++i) best = std::min(best, degree(i));
  return best;
}

std::size_t Network::max_degree() const {
  std::size_t best = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) best = std::max(best, degree(i));
  return best;
}

}  // namespace ballfit::net
