#include "checks.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>

namespace perfbench {

using ballfit::net::Network;
using ballfit::net::NodeId;

namespace {

std::string format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

}  // namespace

std::vector<bool> true_surface(const ballfit::model::Shape& shape,
                               const Network& network, double tolerance) {
  std::vector<bool> truth(network.num_nodes(), false);
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    truth[v] = std::abs(shape.signed_distance(network.position(v))) <= tolerance;
  }
  return truth;
}

Score score(const std::vector<bool>& truth, const std::vector<bool>& flagged) {
  Score s;
  for (std::size_t v = 0; v < truth.size(); ++v) {
    const bool f = v < flagged.size() && flagged[v];
    s.truth += truth[v];
    s.correct += f && truth[v];
    s.mistaken += f && !truth[v];
    s.missing += !f && truth[v];
  }
  return s;
}

std::string check_accuracy(const Score& s, double max_mistaken_fraction,
                           double max_missing_fraction) {
  if (s.truth == 0) return "no true surface nodes";
  const double truth = static_cast<double>(s.truth);
  const double mistaken = static_cast<double>(s.mistaken) / truth;
  const double missing = static_cast<double>(s.missing) / truth;
  if (mistaken > max_mistaken_fraction) {
    return format("mistaken %.4f of the true surface exceeds %.4f", mistaken,
                  max_mistaken_fraction);
  }
  if (missing > max_missing_fraction) {
    return format("missing %.4f of the true surface exceeds %.4f", missing,
                  max_missing_fraction);
  }
  return {};
}

std::string check_mistaken_near_correct(const Network& network,
                                        const std::vector<bool>& truth,
                                        const std::vector<bool>& flagged,
                                        std::size_t max_hops) {
  const std::size_t n = network.num_nodes();
  constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> hops(n, kFar);
  std::deque<NodeId> queue;
  for (NodeId v = 0; v < n; ++v) {
    if (flagged[v] && truth[v]) {
      hops[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (hops[u] == max_hops) continue;
    for (const NodeId w : network.neighbors(u)) {
      if (hops[w] == kFar) {
        hops[w] = hops[u] + 1;
        queue.push_back(w);
      }
    }
  }
  std::size_t far = 0;
  NodeId example = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (flagged[v] && !truth[v] && hops[v] == kFar) {
      if (far == 0) example = v;
      ++far;
    }
  }
  if (far == 0) return {};
  return format("%.0f mistaken nodes (first: node %.0f) lie more than %.0f "
                "hops from any correct node",
                static_cast<double>(far), static_cast<double>(example),
                static_cast<double>(max_hops));
}

std::string check_groups_are_components(
    const Network& network, const std::vector<bool>& boundary,
    const ballfit::core::BoundaryGroups& groups) {
  const std::size_t n = network.num_nodes();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> group_of(n, kNone);
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (const NodeId v : groups.groups[g]) {
      if (v >= n || !boundary[v]) {
        return format("group %.0f holds node %.0f, which is not flagged",
                      static_cast<double>(g), static_cast<double>(v));
      }
      if (group_of[v] != kNone) {
        return format("node %.0f sits in two groups", static_cast<double>(v));
      }
      group_of[v] = g;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (boundary[v] && group_of[v] == kNone) {
      return format("flagged node %.0f is in no group", static_cast<double>(v));
    }
  }
  // Each group must be one component of the boundary subgraph: a BFS from
  // its first member over flagged nodes reaches exactly its members.
  std::vector<char> seen(n, 0);
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    const auto& members = groups.groups[g];
    if (members.empty()) {
      return format("group %.0f is empty", static_cast<double>(g));
    }
    std::deque<NodeId> queue{members.front()};
    seen[members.front()] = 1;
    std::size_t reached = 0;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      ++reached;
      for (const NodeId w : network.neighbors(u)) {
        if (!boundary[w] || seen[w]) continue;
        if (group_of[w] != g) {
          return format("groups %.0f and %.0f are linked (at node %.0f)",
                        static_cast<double>(g),
                        static_cast<double>(group_of[w]),
                        static_cast<double>(w));
        }
        seen[w] = 1;
        queue.push_back(w);
      }
    }
    if (reached != members.size()) {
      return format("group %.0f is not connected: %.0f of %.0f members "
                    "reachable",
                    static_cast<double>(g), static_cast<double>(reached),
                    static_cast<double>(members.size()));
    }
  }
  return {};
}

std::string check_group_count(const ballfit::core::BoundaryGroups& groups,
                              std::size_t expected, std::size_t min_size) {
  std::size_t large = 0;
  for (const auto& g : groups.groups) large += g.size() >= min_size;
  if (large == expected) return {};
  return format("%.0f boundary groups of at least %.0f nodes, expected %.0f",
                static_cast<double>(large), static_cast<double>(min_size),
                static_cast<double>(expected));
}

std::string check_same_flags(const std::vector<bool>& a,
                             const std::vector<bool>& b, const char* what) {
  if (a.size() != b.size()) {
    return std::string(what) + ": sizes differ";
  }
  std::size_t diff = 0;
  for (std::size_t v = 0; v < a.size(); ++v) diff += a[v] != b[v];
  if (diff == 0) return {};
  return std::string(what) +
         format(": %.0f nodes differ", static_cast<double>(diff));
}

std::string check_mesh(const ballfit::mesh::BoundarySurface& surface,
                       const std::vector<bool>& boundary) {
  const ballfit::mesh::TriMesh& mesh = surface.mesh;
  for (std::uint32_t v = 0; v < mesh.num_vertices(); ++v) {
    const NodeId node = mesh.vertex_node(v);
    if (node >= boundary.size() || !boundary[node]) {
      return format("mesh vertex %.0f (node %.0f) is not a flagged boundary "
                    "node",
                    static_cast<double>(v), static_cast<double>(node));
    }
  }
  // Faces on edge (a, b) are the common neighbours of a and b; count them
  // by merging the two sorted adjacency rows.
  for (std::uint32_t a = 0; a < mesh.num_vertices(); ++a) {
    const auto& na = mesh.neighbors(a);
    for (const std::uint32_t b : na) {
      if (b <= a) continue;
      const auto& nb = mesh.neighbors(b);
      std::size_t faces = 0;
      auto i = na.begin();
      auto j = nb.begin();
      while (i != na.end() && j != nb.end()) {
        if (*i < *j) {
          ++i;
        } else if (*j < *i) {
          ++j;
        } else {
          ++faces;
          ++i;
          ++j;
        }
      }
      if (faces > 2) {
        return format("mesh edge (%.0f, %.0f) bounds %.0f triangles",
                      static_cast<double>(mesh.vertex_node(a)),
                      static_cast<double>(mesh.vertex_node(b)),
                      static_cast<double>(faces));
      }
    }
  }
  return {};
}

}  // namespace perfbench
