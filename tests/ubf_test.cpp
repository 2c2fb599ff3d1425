// Tests for the Unit Ball Fitting kernel and detectors: hand-constructed
// geometric cases with known answers, invariance properties (Lemma 1's
// gauge freedom), and behavior of the r knob (hole-size selectivity).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "core/ubf.hpp"
#include "geom/sampling.hpp"
#include "model/csg.hpp"
#include "model/shapes.hpp"
#include "net/builder.hpp"
#include "net/graph.hpp"

namespace ballfit::core {
namespace {

using geom::Vec3;
using net::NodeId;

// A dense cube of nodes: grid spacing 0.5, radio range 1. A small
// deterministic jitter breaks the lattice's cospherical degeneracies
// (a perfect grid puts many nodes exactly on candidate ball surfaces).
net::Network grid_cube(int per_side, double spacing = 0.5) {
  Rng rng(1234);
  std::vector<Vec3> pos;
  for (int x = 0; x < per_side; ++x)
    for (int y = 0; y < per_side; ++y)
      for (int z = 0; z < per_side; ++z)
        pos.push_back({x * spacing + rng.uniform(-0.02, 0.02),
                       y * spacing + rng.uniform(-0.02, 0.02),
                       z * spacing + rng.uniform(-0.02, 0.02)});
  return net::Network(std::move(pos), std::vector<bool>(pos.size(), false),
                      1.0);
}

TEST(UbfKernel, CornerNodeOfCubeIsBoundary) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  // Node 0 is the (0,0,0) corner — an empty ball fits outside trivially.
  std::vector<Vec3> coords{net.position(0)};
  for (NodeId v : net.neighbors(0)) coords.push_back(net.position(v));
  EXPECT_TRUE(ubf.test_node(coords, 0));
}

TEST(UbfKernel, CenterNodeOfDenseCubeIsInterior) {
  const net::Network net = grid_cube(7);
  const UnitBallFitting ubf(net);
  // The center node of a 7× grid with spacing 0.5 is 1.5 away from every
  // face — no empty unit ball can touch it.
  const NodeId center = 3 * 49 + 3 * 7 + 3;
  std::vector<Vec3> coords{net.position(center)};
  for (NodeId v : net.neighbors(center)) coords.push_back(net.position(v));
  EXPECT_FALSE(ubf.test_node(coords, 0));
}

TEST(UbfKernel, InvariantUnderRigidMotion) {
  // The UBF answer must not depend on the coordinate frame — that is what
  // makes MDS local frames (arbitrary gauge) usable.
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  Rng rng(5);
  for (NodeId probe : {0u, 31u, 62u}) {
    std::vector<Vec3> coords{net.position(probe)};
    for (NodeId v : net.neighbors(probe)) coords.push_back(net.position(v));
    const bool base = ubf.test_node(coords, 0);

    const Vec3 u = geom::sample_on_unit_sphere(rng);
    Vec3 w = geom::sample_on_unit_sphere(rng);
    w = (w - u * w.dot(u)).normalized();
    const Vec3 vv = u.cross(w);
    std::vector<Vec3> moved;
    for (const Vec3& p : coords)
      moved.push_back(Vec3{p.dot(u), p.dot(w), p.dot(vv)} + Vec3{7, -3, 2});
    EXPECT_EQ(ubf.test_node(moved, 0), base);
  }
}

TEST(UbfKernel, ReflectionInvariant) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  for (NodeId probe : {0u, 62u}) {
    std::vector<Vec3> coords{net.position(probe)};
    for (NodeId v : net.neighbors(probe)) coords.push_back(net.position(v));
    const bool base = ubf.test_node(coords, 0);
    std::vector<Vec3> mirrored;
    for (const Vec3& p : coords) mirrored.push_back({p.x, p.y, -p.z});
    EXPECT_EQ(ubf.test_node(mirrored, 0), base);
  }
}

TEST(UbfKernel, DiagnosticsCountWork) {
  const net::Network net = grid_cube(5);
  const UnitBallFitting ubf(net);
  std::vector<Vec3> coords{net.position(0)};
  for (NodeId v : net.neighbors(0)) coords.push_back(net.position(v));
  UbfNodeDiagnostics diag;
  (void)ubf.test_node(coords, 0, &diag);
  EXPECT_GT(diag.balls_tested, 0u);
  EXPECT_TRUE(diag.found_empty_ball);
}

TEST(UbfDetect, SphereSurfaceNodesDetected) {
  Rng rng(11);
  const model::SphereShape shape({0, 0, 0}, 3.5);
  net::BuildOptions opt;
  opt.surface_count = 500;
  opt.interior_count = 900;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto detected = ubf.detect_with_true_coordinates();

  std::size_t correct = 0, truth = 0, mistaken_interior_deep = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const bool is_truth = net.is_ground_truth_boundary(v);
    truth += is_truth;
    if (is_truth && detected[v]) ++correct;
    // Deep interior nodes (far from the surface) must never be flagged.
    if (!is_truth && detected[v] &&
        shape.signed_distance(net.position(v)) < -1.5) {
      ++mistaken_interior_deep;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / truth, 0.9);
  EXPECT_EQ(mistaken_interior_deep, 0u);
}

TEST(UbfDetect, HoleBoundaryDetected) {
  Rng rng(12);
  auto base = std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{7, 7, 7});
  auto hole = std::make_shared<model::SphereShape>(Vec3{3.5, 3.5, 3.5}, 1.8);
  const model::DifferenceShape shape(base, {hole});
  net::BuildOptions opt;
  opt.surface_count = 1300;
  opt.interior_count = 1400;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto detected = ubf.detect_with_true_coordinates();

  // Nodes on the hole sphere surface must be detected.
  std::size_t hole_truth = 0, hole_found = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    if (std::fabs(net.position(v).distance_to({3.5, 3.5, 3.5}) - 1.8) < 1e-5) {
      ++hole_truth;
      hole_found += detected[v];
    }
  }
  ASSERT_GT(hole_truth, 50u);
  EXPECT_GT(static_cast<double>(hole_found) / hole_truth, 0.9);
}

TEST(UbfDetect, LargerRadiusIgnoresSmallHoles) {
  // Hole-size selectivity (Sec. II-A3): a ball radius much larger than a
  // hole's inscribed radius cannot fit into it, so its boundary nodes stop
  // reporting. The outer boundary is unaffected.
  Rng rng(13);
  auto base = std::make_shared<model::BoxShape>(Vec3{0, 0, 0}, Vec3{8, 8, 8});
  auto hole = std::make_shared<model::SphereShape>(Vec3{4, 4, 4}, 1.3);
  const model::DifferenceShape shape(base, {hole});
  net::BuildOptions opt;
  opt.surface_count = 1500;
  opt.interior_count = 1500;
  const net::Network net = net::build_network(shape, opt, rng);

  UbfConfig small_cfg;  // r ≈ 1 — sees the hole
  UbfConfig big_cfg;
  big_cfg.radius_override = 2.0;  // r = 2 > hole radius 1.3 — cannot fit

  const auto small_flags =
      UnitBallFitting(net, small_cfg).detect_with_true_coordinates();
  const auto big_flags =
      UnitBallFitting(net, big_cfg).detect_with_true_coordinates();

  std::size_t hole_small = 0, hole_big = 0, outer_big = 0, outer_truth = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!net.is_ground_truth_boundary(v)) continue;
    const bool on_hole =
        std::fabs(net.position(v).distance_to({4, 4, 4}) - 1.3) < 1e-5;
    if (on_hole) {
      hole_small += small_flags[v];
      hole_big += big_flags[v];
    } else {
      ++outer_truth;
      outer_big += big_flags[v];
    }
  }
  EXPECT_GT(hole_small, 20u);
  EXPECT_LT(hole_big, hole_small / 4);
  EXPECT_GT(static_cast<double>(outer_big) / outer_truth, 0.85);
}

TEST(UbfDetect, LocalizedMatchesOracleAtZeroError) {
  Rng rng(14);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 350;
  opt.interior_count = 600;
  const net::Network net = net::build_network(shape, opt, rng);

  const UnitBallFitting ubf(net);
  const auto oracle = ubf.detect_with_true_coordinates();

  const net::NoisyDistanceModel model(net, 0.0, 7);
  const localization::Localizer loc(net, model);
  const auto localized = ubf.detect(loc);

  // MDS at zero error reproduces the geometry up to rigid motion, and the
  // test is gauge-invariant, so the answers agree except for numerically
  // marginal balls. Allow a tiny disagreement budget.
  std::size_t disagree = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    disagree += (oracle[v] != localized[v]);
  EXPECT_LT(static_cast<double>(disagree) / net.num_nodes(), 0.02);
}

TEST(UbfConfigChecks, BadRadiusRejected) {
  const net::Network net = grid_cube(3);
  UbfConfig cfg;
  cfg.radius_override = 0.5;  // below radio range
  EXPECT_THROW(UnitBallFitting(net, cfg), InvalidArgument);
}

// --- Boundary confidence (vote_confidence and the scored detectors) --------

TEST(UbfConfidence, VoteConfidenceFormula) {
  EXPECT_DOUBLE_EQ(vote_confidence(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(vote_confidence(3, 3), 0.5);  // exactly at threshold
  EXPECT_DOUBLE_EQ(vote_confidence(6, 3), 6.0 / 9.0);
  // Degenerate threshold 0: boundary iff any vote at all.
  EXPECT_DOUBLE_EQ(vote_confidence(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(vote_confidence(5, 0), 1.0);
  // Monotone in votes, never reaching 1.
  for (std::size_t v = 1; v < 12; ++v) {
    EXPECT_GT(vote_confidence(v, 4), vote_confidence(v - 1, 4));
    EXPECT_LT(vote_confidence(v, 4), 1.0);
  }
}

TEST(UbfConfidence, ScoreThresholdsExactlyAtFlag) {
  const net::Network net = grid_cube(6);
  for (const std::size_t T : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    UbfConfig cfg;
    cfg.min_empty_balls = T;
    const UnitBallFitting ubf(net, cfg);
    // Flags must be bit-identical with and without the margin request.
    const std::vector<bool> plain = ubf.detect_with_true_coordinates();
    std::vector<float> conf;
    const std::vector<bool> scored =
        ubf.detect_with_true_coordinates(nullptr, nullptr, &conf);
    ASSERT_EQ(conf.size(), net.num_nodes());
    EXPECT_EQ(plain, scored) << "T=" << T;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_EQ(scored[v], conf[v] >= 0.5f) << "node " << v << " T=" << T;
      EXPECT_GE(conf[v], 0.0f);
      EXPECT_LT(conf[v], 1.0f);
    }
  }
}

TEST(UbfConfidence, MonotoneInMinEmptyBalls) {
  const net::Network net = grid_cube(6);
  std::vector<float> prev;
  for (const std::size_t T : {1, 2, 3, 5, 8, 12}) {
    UbfConfig cfg;
    cfg.min_empty_balls = T;
    const UnitBallFitting ubf(net, cfg);
    std::vector<float> conf;
    (void)ubf.detect_with_true_coordinates(nullptr, nullptr, &conf);
    ASSERT_EQ(conf.size(), net.num_nodes());
    if (!prev.empty()) {
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        EXPECT_LE(conf[v], prev[v]) << "node " << v << " at T=" << T;
      }
    }
    prev = std::move(conf);
  }
}

// --- Masked oracle detector (incremental re-detection) ---------------------

// The masked true-coordinates detector over a sound dirty set reproduces
// the full call on the same alive mask: the 2-hop reach of every crash
// (what a flag reads) plus every node left with fewer than 3 alive
// neighbors (the readers of the degenerate vote, which flips here exactly
// as a session flips it on the first crash). Flags, fallbacks and the
// carried-over confidence must all match.
TEST(UbfTrueCoords, MaskedRunOverDirtySetEqualsFullRun) {
  Rng rng(77);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 150;
  opt.interior_count = 250;
  const net::Network net = net::build_network(shape, opt, rng);
  const std::size_t n = net.num_nodes();
  UbfConfig starved;
  starved.degenerate_is_boundary = false;
  const UnitBallFitting before(net);  // all alive, optimistic vote
  const UnitBallFitting after(net, starved);

  std::vector<char> alive(n, 1);
  std::vector<NodeId> crashed;
  // Crash 90% of one half-space: the survivors there are starved of
  // neighbors, while the far side stays outside every crash's reach.
  for (NodeId v = 0; v < n; ++v) {
    if (net.position(v).x > 0.5 && rng.uniform() < 0.9) {
      alive[v] = 0;
      crashed.push_back(v);
    }
  }
  std::vector<char> dirty(n, 0);
  net::mark_k_hop(net, crashed, 2, dirty);
  std::size_t degenerate = 0;
  for (NodeId v = 0; v < n; ++v) {
    std::size_t alive_neighbors = 0;
    for (NodeId u : net.neighbors(v)) alive_neighbors += alive[u] != 0;
    if (alive[v] != 0 && alive_neighbors < 3) {
      dirty[v] = 1;
      ++degenerate;
    }
  }
  ASSERT_GT(degenerate, 0u) << "the degenerate rule is not exercised";
  ASSERT_LT(static_cast<std::size_t>(
                n - std::count(dirty.begin(), dirty.end(), char{0})),
            n)
      << "the mask is not partial";

  for (const bool scored : {false, true}) {
    std::vector<float> full_conf;
    std::size_t full_fallbacks = 0;
    const std::vector<bool> full = after.detect_with_true_coordinates(
        &full_fallbacks, &alive, scored ? &full_conf : nullptr);

    std::vector<float> conf;
    const std::vector<bool> start = before.detect_with_true_coordinates(
        nullptr, nullptr, scored ? &conf : nullptr);
    std::vector<char> flags(start.begin(), start.end());
    std::size_t fallbacks = 0;
    after.detect_with_true_coordinates(flags, &alive, &dirty,
                                       scored ? &conf : nullptr, &fallbacks);
    EXPECT_EQ(std::vector<bool>(flags.begin(), flags.end()), full)
        << "scored=" << scored;
    EXPECT_EQ(fallbacks, full_fallbacks) << "scored=" << scored;
    if (scored) {
      EXPECT_EQ(conf, full_conf);
    }
  }
}

// The true-coordinates detector runs its nodes on `threads` workers; flags,
// confidence and the fallback count must not depend on the count, on the
// full call and on a masked partial call over a starved alive mask alike.
TEST(UbfTrueCoords, ThreadCountInvariant) {
  Rng rng(91);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = 150;
  opt.interior_count = 250;
  const net::Network net = net::build_network(shape, opt, rng);
  const std::size_t n = net.num_nodes();
  UbfConfig starved;
  starved.degenerate_is_boundary = false;
  const UnitBallFitting ubf(net, starved);

  std::vector<char> alive(n, 1);
  std::vector<NodeId> crashed;
  for (NodeId v = 0; v < n; ++v) {
    if (net.position(v).x > 0.5 && rng.uniform() < 0.9) {
      alive[v] = 0;
      crashed.push_back(v);
    }
  }
  std::vector<char> dirty(n, 0);
  net::mark_k_hop(net, crashed, 2, dirty);

  // The full call is the masked form with no run mask; the masked call
  // re-tests the 2-hop reach of the crashes over stale flags/confidence.
  struct Outcome {
    std::vector<char> flags;
    std::vector<float> conf;
    std::size_t fallbacks = 0;
    std::vector<char> masked_flags;
    std::vector<float> masked_conf;
    std::size_t masked_fallbacks = 0;
  };
  const auto run = [&](unsigned threads) {
    Outcome o;
    o.flags.assign(n, 0);
    o.conf.assign(n, 0.0f);
    ubf.detect_with_true_coordinates(o.flags, &alive, /*run_mask=*/nullptr,
                                     &o.conf, &o.fallbacks, threads);
    o.masked_flags.assign(n, 1);
    o.masked_conf.assign(n, 0.25f);
    ubf.detect_with_true_coordinates(o.masked_flags, &alive, &dirty,
                                     &o.masked_conf, &o.masked_fallbacks,
                                     threads);
    return o;
  };
  const Outcome serial = run(1);
  ASSERT_GT(serial.fallbacks, 0u) << "the fallback count is not exercised";
  ASSERT_GT(std::count(serial.flags.begin(), serial.flags.end(), 1), 0);
  std::size_t plain_fallbacks = 0;
  std::vector<float> plain_conf;
  const std::vector<bool> plain =
      ubf.detect_with_true_coordinates(&plain_fallbacks, &alive, &plain_conf);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(plain[v], serial.flags[v] != 0) << v;
  }
  EXPECT_EQ(plain_conf, serial.conf);
  EXPECT_EQ(plain_fallbacks, serial.fallbacks);
  for (const unsigned threads : {2u, 8u}) {
    const Outcome got = run(threads);
    EXPECT_EQ(got.flags, serial.flags) << threads << " threads";
    EXPECT_EQ(got.conf, serial.conf) << threads << " threads";
    EXPECT_EQ(got.fallbacks, serial.fallbacks) << threads << " threads";
    EXPECT_EQ(got.masked_flags, serial.masked_flags) << threads << " threads";
    EXPECT_EQ(got.masked_conf, serial.masked_conf) << threads << " threads";
    EXPECT_EQ(got.masked_fallbacks, serial.masked_fallbacks)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ballfit::core
