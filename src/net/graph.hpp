#pragma once

/// \file graph.hpp
/// Hop-distance and component utilities over the network graph, with
/// optional restriction to a node subset (IFF and the mesh stage both work
/// on the boundary-node subgraph).

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace ballfit::net {

inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);

/// A node filter: nullptr means "all nodes"; otherwise nodes with
/// (*mask)[v] == false are invisible (cannot be traversed or reached).
using NodeMask = std::vector<bool>;

/// BFS hop distances from `source` (restricted to `mask` if given).
/// `max_hops` is an inclusive cap in hops (default `kUnreachable` =
/// unbounded); nodes beyond it report `kUnreachable`.
std::vector<std::uint32_t> hop_distances(const Network& net, NodeId source,
                                         const NodeMask* mask = nullptr,
                                         std::uint32_t max_hops = kUnreachable);

/// Multi-source BFS: distance to the closest source, and which source won
/// (ties broken by smaller source id, matching the paper's landmark
/// association tiebreaker). `owner[v] == kInvalidNode` when unreachable.
struct MultiSourceBfs {
  std::vector<std::uint32_t> distance;
  std::vector<NodeId> owner;
};
MultiSourceBfs multi_source_bfs(const Network& net,
                                const std::vector<NodeId>& sources,
                                const NodeMask* mask = nullptr);

/// Connected components of the (masked) graph. Returns component id per
/// node (kUnreachable for masked-out nodes) and the component sizes.
struct Components {
  std::vector<std::uint32_t> component;
  std::vector<std::size_t> sizes;
  std::size_t count() const { return sizes.size(); }
};
Components connected_components(const Network& net,
                                const NodeMask* mask = nullptr);

/// True when the whole network is a single connected component.
bool is_connected(const Network& net);

/// Shortest path (in hops) from `from` to `to` over the masked graph,
/// inclusive of both endpoints; empty when unreachable. Tie-breaking is
/// deterministic: the BFS parent with the smallest id wins.
std::vector<NodeId> shortest_path(const Network& net, NodeId from, NodeId to,
                                  const NodeMask* mask = nullptr);

/// Marks every node within `k` hops (inclusive; k = 0 marks just the
/// seeds) of any seed with 1 + its hop distance to the nearest seed (seeds
/// get 1), accumulating into `out` (must be sized num_nodes; k < 127). A
/// node that already carries a nonzero mark keeps the smaller of the two,
/// so after several calls a node's mark is 1 + its distance to the nearest
/// seed of any call, and `out[v] != 0` still reads "within reach". Callers
/// that need a narrower reach than they marked select `out[v] <= reach + 1`.
/// Traversal runs over the full adjacency, deliberately ignoring any
/// aliveness mask: a dead relay still bounds how far a topology change can
/// influence a two-hop neighborhood, so the unmasked reach is the sound
/// (conservative) dirty set for incremental re-detection.
void mark_k_hop(const Network& net, const std::vector<NodeId>& seeds,
                std::uint32_t k, std::vector<char>& out);

}  // namespace ballfit::net
