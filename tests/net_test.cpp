// Tests for src/net: unit-disk adjacency, BFS/graph utilities, the network
// builder (ground truth labels, connectivity handling), and the noisy
// distance measurement model.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"
#include "net/measurement.hpp"
#include "net/network.hpp"

namespace ballfit::net {
namespace {

using geom::Vec3;

Network line_network(int n, double spacing = 0.9) {
  std::vector<Vec3> pos;
  for (int i = 0; i < n; ++i)
    pos.push_back({static_cast<double>(i) * spacing, 0, 0});
  return Network(std::move(pos), std::vector<bool>(n, false), 1.0);
}

TEST(Network, AdjacencyMatchesBruteForce) {
  Rng rng(1);
  std::vector<Vec3> pos;
  for (int i = 0; i < 300; ++i)
    pos.push_back(geom::Vec3{rng.uniform(0, 5), rng.uniform(0, 5),
                             rng.uniform(0, 5)});
  const Network net(pos, std::vector<bool>(pos.size(), false), 1.0);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    std::vector<NodeId> want;
    for (NodeId j = 0; j < net.num_nodes(); ++j) {
      if (i != j && pos[i].distance_to(pos[j]) <= 1.0) want.push_back(j);
    }
    const auto got = net.neighbors(i);
    ASSERT_EQ(got.size(), want.size()) << "node " << i;
    for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]);
  }
}

TEST(Network, LineTopologyDegrees) {
  const Network net = line_network(5);
  EXPECT_EQ(net.degree(0), 1u);
  EXPECT_EQ(net.degree(2), 2u);
  EXPECT_TRUE(net.are_neighbors(0, 1));
  EXPECT_FALSE(net.are_neighbors(0, 2));
  EXPECT_DOUBLE_EQ(net.average_degree(), (1 + 2 + 2 + 2 + 1) / 5.0);
  EXPECT_EQ(net.min_degree(), 1u);
  EXPECT_EQ(net.max_degree(), 2u);
}

TEST(Network, GroundTruthLabelsPreserved) {
  std::vector<Vec3> pos = {{0, 0, 0}, {0.5, 0, 0}, {1.0, 0, 0}};
  const Network net(pos, {true, false, true}, 1.0);
  EXPECT_TRUE(net.is_ground_truth_boundary(0));
  EXPECT_FALSE(net.is_ground_truth_boundary(1));
  EXPECT_EQ(net.num_ground_truth_boundary(), 2u);
}

TEST(Network, RejectsBadInputs) {
  std::vector<Vec3> pos = {{0, 0, 0}};
  EXPECT_THROW(Network(pos, {true, false}, 1.0), InvalidArgument);
  EXPECT_THROW(Network(pos, {true}, 0.0), InvalidArgument);
}

TEST(Graph, HopDistancesOnLine) {
  const Network net = line_network(6);
  const auto dist = hop_distances(net, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Graph, HopDistancesRespectMask) {
  const Network net = line_network(6);
  NodeMask mask(6, true);
  mask[3] = false;  // cut the line
  const auto dist = hop_distances(net, 0, &mask);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], kUnreachable);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Graph, HopDistancesMaxHops) {
  const Network net = line_network(8);
  const auto dist = hop_distances(net, 0, nullptr, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(Graph, MultiSourceOwnersAndTies) {
  const Network net = line_network(7);
  const auto bfs = multi_source_bfs(net, {0, 6});
  EXPECT_EQ(bfs.owner[1], 0u);
  EXPECT_EQ(bfs.owner[5], 6u);
  EXPECT_EQ(bfs.distance[3], 3u);
  // Node 3 ties (3 hops to both); the smaller id must win.
  EXPECT_EQ(bfs.owner[3], 0u);
}

TEST(Graph, ConnectedComponentsWithMask) {
  const Network net = line_network(7);
  NodeMask mask(7, true);
  mask[3] = false;
  const auto comps = connected_components(net, &mask);
  EXPECT_EQ(comps.count(), 2u);
  EXPECT_EQ(comps.component[3], kUnreachable);
  EXPECT_EQ(comps.component[0], comps.component[2]);
  EXPECT_NE(comps.component[0], comps.component[4]);
  EXPECT_EQ(comps.sizes[comps.component[0]], 3u);
}

TEST(Graph, IsConnected) {
  EXPECT_TRUE(is_connected(line_network(5)));
  std::vector<Vec3> pos = {{0, 0, 0}, {5, 0, 0}};
  const Network split(pos, {false, false}, 1.0);
  EXPECT_FALSE(is_connected(split));
}

TEST(Graph, ShortestPathEndpointsAndLength) {
  const Network net = line_network(6);
  const auto path = shortest_path(net, 1, 4);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 1u);
  EXPECT_EQ(path.back(), 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    EXPECT_TRUE(net.are_neighbors(path[i], path[i + 1]));
}

TEST(Graph, ShortestPathUnreachableEmpty) {
  const Network net = line_network(6);
  NodeMask mask(6, true);
  mask[2] = false;
  EXPECT_TRUE(shortest_path(net, 0, 5, &mask).empty());
}

TEST(Graph, MarkKHopKeepsNearestDistance) {
  const Network net = line_network(8);
  std::vector<char> out(8, 0);
  mark_k_hop(net, {2}, 2, out);
  EXPECT_EQ(out, (std::vector<char>{3, 2, 1, 2, 3, 0, 0, 0}));
  // A second call keeps the smaller mark where both reach.
  mark_k_hop(net, {5}, 1, out);
  EXPECT_EQ(out, (std::vector<char>{3, 2, 1, 2, 2, 1, 2, 0}));
}

TEST(Builder, ProducesRequestedCountsAndLabels) {
  Rng rng(5);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  BuildOptions opt;
  opt.surface_count = 600;
  opt.interior_count = 900;
  BuildDiagnostics diag;
  const Network net = build_network(shape, opt, rng, &diag);
  EXPECT_EQ(diag.requested_nodes, 1500u);
  EXPECT_GE(net.num_nodes(), 1400u);  // few may drop with the component
  EXPECT_GT(net.num_ground_truth_boundary(), 500u);
  EXPECT_GT(diag.average_degree, 4.0);
  // Surface nodes really sit on the surface; interior nodes inside.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const double sd = shape.signed_distance(net.position(v));
    if (net.is_ground_truth_boundary(v)) {
      EXPECT_NEAR(sd, 0.0, 1e-6);
    } else {
      EXPECT_LE(sd, 0.0);
    }
  }
}

TEST(Builder, LargestComponentKept) {
  Rng rng(6);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  BuildOptions opt;
  opt.surface_count = 400;
  opt.interior_count = 600;
  const Network net = build_network(shape, opt, rng);
  EXPECT_TRUE(is_connected(net));
}

TEST(Builder, TargetDegreeCalibration) {
  Rng rng(7);
  const model::SphereShape shape({0, 0, 0}, 4.0);
  const BuildOptions opt =
      options_for_target_degree(shape, 16.0, 0.35, rng);
  Rng build_rng(8);
  BuildDiagnostics diag;
  (void)build_network(shape, opt, build_rng, &diag);
  EXPECT_NEAR(diag.average_degree, 16.0, 2.5);
}

TEST(Measurement, ZeroErrorIsExact) {
  const Network net = line_network(4);
  const NoisyDistanceModel model(net, 0.0, 123);
  EXPECT_DOUBLE_EQ(model.measured_distance(0, 1), 0.9);
}

TEST(Measurement, SymmetricAndDeterministic) {
  const Network net = line_network(10);
  const NoisyDistanceModel model(net, 0.5, 42);
  for (NodeId i = 0; i < 10; ++i)
    for (NodeId j = 0; j < 10; ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(model.measured_distance(i, j),
                       model.measured_distance(j, i));
      // Stable across repeated queries.
      EXPECT_DOUBLE_EQ(model.measured_distance(i, j),
                       model.measured_distance(i, j));
    }
  const NoisyDistanceModel again(net, 0.5, 42);
  EXPECT_DOUBLE_EQ(model.measured_distance(2, 7),
                   again.measured_distance(2, 7));
}

TEST(Measurement, ErrorBoundedByFraction) {
  const Network net = line_network(50);
  const double e = 0.3;
  const NoisyDistanceModel model(net, e, 7);
  for (NodeId i = 0; i < 50; ++i)
    for (NodeId j = i + 1; j < 50; ++j) {
      const double truth = net.true_distance(i, j);
      const double meas = model.measured_distance(i, j);
      EXPECT_GE(meas, std::max(0.0, truth - e * net.radio_range()) - 1e-12);
      EXPECT_LE(meas, truth + e * net.radio_range() + 1e-12);
    }
}

TEST(Measurement, DifferentSeedsDiffer) {
  const Network net = line_network(10);
  const NoisyDistanceModel a(net, 0.5, 1);
  const NoisyDistanceModel b(net, 0.5, 2);
  int equal = 0;
  for (NodeId i = 0; i < 9; ++i)
    equal += (a.measured_distance(i, i + 1) == b.measured_distance(i, i + 1));
  EXPECT_LT(equal, 3);
}

TEST(Measurement, NoiseRoughlyUniform) {
  // Mean error ≈ 0, spread ≈ e·R/√3 for Uniform(−eR, eR).
  const Network net = line_network(200, 0.5);
  const double e = 0.4;
  const NoisyDistanceModel model(net, e, 99);
  double sum = 0.0, sum2 = 0.0;
  int count = 0;
  for (NodeId i = 0; i + 1 < 200; ++i) {
    const double err =
        model.measured_distance(i, i + 1) - net.true_distance(i, i + 1);
    sum += err;
    sum2 += err * err;
    ++count;
  }
  EXPECT_NEAR(sum / count, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / count), e / std::sqrt(3.0), 0.05);
}

TEST(EdgeMeasurementCache, MatchesModelBitwiseAndAlignsWithAdjacency) {
  Rng rng(7);
  std::vector<Vec3> pos;
  for (int i = 0; i < 400; ++i)
    pos.push_back(geom::Vec3{rng.uniform(0, 5), rng.uniform(0, 5),
                             rng.uniform(0, 5)});
  const Network net(pos, std::vector<bool>(pos.size(), false), 1.0);
  const NoisyDistanceModel model(net, 0.3, 42);
  const EdgeMeasurementCache cache(model);

  std::size_t entries = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const auto nbrs = net.neighbors(i);
    const double* row = cache.row(i);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      // Bitwise — the cache is a materialization, not an approximation.
      EXPECT_EQ(row[a], model.measured_distance(i, nbrs[a]));
      ++entries;
    }
  }
  EXPECT_EQ(cache.size(), entries);
}

TEST(EdgeMeasurementCache, SymmetricAcrossDirectedCopies) {
  const Network net = line_network(50, 0.8);
  const NoisyDistanceModel model(net, 0.5, 9);
  const EdgeMeasurementCache cache(model);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const auto nbrs = net.neighbors(i);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      const NodeId j = nbrs[a];
      const auto back = net.neighbors(j);
      for (std::size_t b = 0; b < back.size(); ++b) {
        if (back[b] == i) {
          EXPECT_EQ(cache.row(i)[a], cache.row(j)[b]);
        }
      }
    }
  }
}

// --- apply_moves: local adjacency rebuild ----------------------------------

TEST(ApplyMoves, EquivalentToFreshConstruction) {
  Rng rng(7);
  std::vector<Vec3> pos;
  for (int i = 0; i < 250; ++i)
    pos.push_back({rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
  Network net(pos, std::vector<bool>(pos.size(), false), 1.0);

  // Mix of small drifts and one long jump, unsorted by id on purpose.
  std::vector<NodeMove> moves = {
      {42, {pos[42].x + 0.3, pos[42].y, pos[42].z - 0.2}},
      {7, {pos[7].x - 0.4, pos[7].y + 0.1, pos[7].z}},
      {199, {0.1, 0.1, 0.1}},  // jumps across the box
  };
  net.apply_moves(moves);
  for (const NodeMove& m : moves) pos[m.node] = m.new_position;
  const Network fresh(pos, std::vector<bool>(pos.size(), false), 1.0);

  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    EXPECT_EQ(net.position(i).x, fresh.position(i).x) << "node " << i;
    const auto got = net.neighbors(i);
    const auto want = fresh.neighbors(i);
    ASSERT_EQ(got.size(), want.size()) << "node " << i;
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_EQ(got[k], want[k]) << "node " << i;
  }
}

TEST(ApplyMoves, RejectsDuplicateAndOutOfRangeIds) {
  Network net = line_network(5);
  const std::vector<NodeMove> dup = {{1, {0, 0, 0}}, {1, {1, 0, 0}}};
  EXPECT_THROW(net.apply_moves(dup), InvalidArgument);
  const std::vector<NodeMove> oob = {{5, {0, 0, 0}}};
  EXPECT_THROW(net.apply_moves(oob), InvalidArgument);
  // Neither call mutated the network.
  EXPECT_DOUBLE_EQ(net.position(1).x, 0.9);
  EXPECT_EQ(net.degree(0), 1u);
}

TEST(ApplyMoves, EmptyBatchIsNoOp) {
  Network net = line_network(4);
  net.apply_moves({});
  EXPECT_EQ(net.degree(0), 1u);
}

}  // namespace
}  // namespace ballfit::net
