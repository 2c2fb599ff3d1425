#pragma once

/// \file checks.hpp
/// Correctness checks of the repository benchmark. Each check recomputes
/// its reference from first principles (the shape's signed distance, its
/// own breadth-first searches, its own face counts) rather than trusting
/// the library's bookkeeping, and returns an empty string when the output
/// holds or a one-line reason when it does not. The self-test feeds every
/// check a corrupted input to show that it can fail.

#include <cstddef>
#include <string>
#include <vector>

#include "core/grouping.hpp"
#include "mesh/surface_builder.hpp"
#include "model/shape.hpp"
#include "net/network.hpp"

namespace perfbench {

/// Nodes on the true surface: |signed distance| <= `tolerance` (world
/// units). Surface samples are Newton-projected onto the zero level set and
/// interior samples keep a 0.35 R clearance, so any cut well between the
/// two (the benchmark uses 0.1 R) recovers the sampled surface exactly.
std::vector<bool> true_surface(const ballfit::model::Shape& shape,
                               const ballfit::net::Network& network,
                               double tolerance);

/// The paper's scoring (Fig. 11(a)): flagged nodes split into correct
/// (on the true surface) and mistaken (interior); missing are true
/// surface nodes left unflagged.
struct Score {
  std::size_t truth = 0;
  std::size_t correct = 0;
  std::size_t mistaken = 0;
  std::size_t missing = 0;
};
Score score(const std::vector<bool>& truth, const std::vector<bool>& flagged);

/// Mistaken and missing may each be at most the given fraction of the
/// true surface population.
std::string check_accuracy(const Score& s, double max_mistaken_fraction,
                           double max_missing_fraction);

/// Fig. 11(b): every mistaken node lies within `max_hops` hops of a
/// correctly flagged node (multi-source BFS over the radio graph).
std::string check_mistaken_near_correct(const ballfit::net::Network& network,
                                        const std::vector<bool>& truth,
                                        const std::vector<bool>& flagged,
                                        std::size_t max_hops);

/// The groups are exactly the connected components of the subgraph
/// induced by the boundary flags: every flagged node in one group, every
/// group connected, no radio link between two groups.
std::string check_groups_are_components(
    const ballfit::net::Network& network, const std::vector<bool>& boundary,
    const ballfit::core::BoundaryGroups& groups);

/// Exactly `expected` groups hold at least `min_size` nodes: one per true
/// boundary, none merged. Smaller split-off groups are left to the
/// accuracy and component checks.
std::string check_group_count(const ballfit::core::BoundaryGroups& groups,
                              std::size_t expected, std::size_t min_size);

/// Two flag vectors are bit-identical; `what` names the comparison.
std::string check_same_flags(const std::vector<bool>& a,
                             const std::vector<bool>& b, const char* what);

/// Paper Sec. III step V: no mesh edge bounds more than two triangles
/// (faces counted from the mesh adjacency as common neighbours), and every
/// mesh vertex is a flagged boundary node.
std::string check_mesh(const ballfit::mesh::BoundarySurface& surface,
                       const std::vector<bool>& boundary);

}  // namespace perfbench
