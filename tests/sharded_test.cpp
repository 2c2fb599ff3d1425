// ShardedDetector contract tests: sharded detection must be bit-identical
// to the unsharded session on both coordinate paths, deterministic across
// shard/thread counts, stitch groups across seams, and route deltas to
// every shard whose cell-or-rim sees the node. Also covers the enabling
// net::Network APIs (induced_subnetwork, parallel builder).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/session.hpp"
#include "core/sharded.hpp"
#include "model/sampler.hpp"
#include "model/shapes.hpp"
#include "model/zoo.hpp"
#include "net/builder.hpp"
#include "net/measurement.hpp"
#include "obs/metrics.hpp"

namespace ballfit::core {
namespace {

using net::NodeId;

net::Network sphere_network(std::uint64_t seed, std::size_t surface = 170,
                            std::size_t interior = 280) {
  Rng rng(seed);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  net::BuildOptions opt;
  opt.surface_count = surface;
  opt.interior_count = interior;
  return net::build_network(shape, opt, rng);
}

/// An elongated box (12 × 3 × 3 radio ranges): cutting only the x axis
/// yields shards with genuinely disjoint reach, which the delta-routing
/// test needs (a node must be *outside* some shard's halo).
net::Network slab_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::BoxShape shape({0, 0, 0}, {12.0, 3.0, 3.0});
  net::BuildOptions opt;
  opt.surface_count = 520;
  opt.interior_count = 600;
  return net::build_network(shape, opt, rng);
}

net::Network fig1_hole_network(std::uint64_t seed) {
  Rng rng(seed);
  const model::Scenario scenario = model::fig1_network(0.45);
  net::BuildOptions opt =
      net::options_for_target_degree(*scenario.shape, 15.0, 0.5, rng);
  return net::build_network(*scenario.shape, opt, rng);
}

void expect_equal_detection(const PipelineResult& sharded,
                            const PipelineResult& reference,
                            const char* what) {
  EXPECT_EQ(sharded.ubf_candidates, reference.ubf_candidates) << what;
  EXPECT_EQ(sharded.boundary, reference.boundary) << what;
  EXPECT_EQ(sharded.groups.leader, reference.groups.leader) << what;
  EXPECT_EQ(sharded.groups.groups, reference.groups.groups) << what;
}

/// The unsharded ground truth for a detector's current state: a cold
/// session over the live network with every dead node crashed.
PipelineResult cold_reference(const net::Network& net,
                              const ShardedDetector& det,
                              const PipelineConfig& cfg) {
  DetectionSession cold(net);
  NetworkDelta dead;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!det.is_alive(v)) dead.crashed.push_back(v);
  }
  if (!dead.empty()) cold.apply(dead);
  return cold.run(cfg);
}

/// The obs-gated outputs: per-node confidence, and the group quality
/// scores (whose flood margins read the per-node IFF counts).
void expect_equal_obs_outputs(const PipelineResult& sharded,
                              const PipelineResult& reference,
                              const char* what) {
  EXPECT_EQ(sharded.ubf_confidence, reference.ubf_confidence) << what;
  ASSERT_EQ(sharded.group_quality.size(), reference.group_quality.size())
      << what;
  for (std::size_t i = 0; i < sharded.group_quality.size(); ++i) {
    EXPECT_EQ(sharded.group_quality[i].score,
              reference.group_quality[i].score)
        << what;
    EXPECT_EQ(sharded.group_quality[i].flood_margin,
              reference.group_quality[i].flood_margin)
        << what;
  }
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

ShardedConfig cells(std::size_t x, std::size_t y, std::size_t z,
                    unsigned threads = 2) {
  ShardedConfig cfg;
  cfg.cells_x = x;
  cfg.cells_y = y;
  cfg.cells_z = z;
  cfg.threads = threads;
  return cfg;
}

// ---------------------------------------------------------------------------
// net::Network enablers

TEST(InducedSubnetwork, ExtractsIntersectedRowsAndMaps) {
  const net::Network net = sphere_network(3);
  // Every other node, to force real row filtering.
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < net.num_nodes(); v += 2) keep.push_back(v);

  const net::Network::Subnetwork sub = net.induced_subnetwork(keep);
  ASSERT_EQ(sub.net.num_nodes(), keep.size());
  EXPECT_TRUE(sub.net.has_external_ids());
  EXPECT_FALSE(net.has_external_ids());
  EXPECT_EQ(sub.net.radio_range(), net.radio_range());

  for (std::size_t l = 0; l < keep.size(); ++l) {
    const NodeId g = keep[l];
    EXPECT_EQ(sub.to_global[l], g);
    EXPECT_EQ(sub.net.external_id(static_cast<NodeId>(l)), g);
    EXPECT_EQ(sub.net.position(static_cast<NodeId>(l)).x, net.position(g).x);
    EXPECT_EQ(sub.net.is_ground_truth_boundary(static_cast<NodeId>(l)),
              net.is_ground_truth_boundary(g));
    // Row = parent row ∩ keep, remapped; local rows stay sorted.
    std::vector<NodeId> expected;
    for (NodeId gn : net.neighbors(g)) {
      if (gn % 2 == 0) expected.push_back(gn / 2);
    }
    const auto row = sub.net.neighbors(static_cast<NodeId>(l));
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                           expected.end()))
        << "row " << l;
  }

  // External ids compose through a second extraction level.
  std::vector<NodeId> inner;
  for (NodeId v = 0; v < sub.net.num_nodes(); v += 3) inner.push_back(v);
  const net::Network::Subnetwork sub2 = sub.net.induced_subnetwork(inner);
  for (std::size_t l = 0; l < inner.size(); ++l) {
    EXPECT_EQ(sub2.net.external_id(static_cast<NodeId>(l)),
              keep[inner[l]]);
  }
}

TEST(InducedSubnetwork, RejectsUnsortedAndOutOfRange) {
  const net::Network net = sphere_network(3);
  const std::vector<NodeId> unsorted = {3, 1};
  EXPECT_THROW((void)net.induced_subnetwork(unsorted), InvalidArgument);
  const std::vector<NodeId> dup = {1, 1};
  EXPECT_THROW((void)net.induced_subnetwork(dup), InvalidArgument);
  const std::vector<NodeId> oob = {static_cast<NodeId>(net.num_nodes())};
  EXPECT_THROW((void)net.induced_subnetwork(oob), InvalidArgument);
}

TEST(InducedSubnetwork, NoisePreservedOnSharedEdges) {
  const net::Network net = sphere_network(7);
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < net.num_nodes(); v += 2) keep.push_back(v);
  const net::Network::Subnetwork sub = net.induced_subnetwork(keep);

  const net::NoisyDistanceModel parent_model(net, 0.3, 42);
  const net::NoisyDistanceModel sub_model(sub.net, 0.3, 42);
  for (NodeId l = 0; l < sub.net.num_nodes(); ++l) {
    for (NodeId ln : sub.net.neighbors(l)) {
      EXPECT_EQ(sub_model.measured_distance(l, ln),
                parent_model.measured_distance(sub.to_global[l],
                                               sub.to_global[ln]));
    }
  }
}

TEST(ParallelBuilder, ThreadCountAndGridPathInvariant) {
  Rng rng(17);
  const model::SphereShape shape({0, 0, 0}, 3.0);
  std::vector<geom::Vec3> pos = model::sample_surface(shape, 150, rng);
  {
    auto interior = model::sample_volume(shape, 250, rng, 0.0);
    pos.insert(pos.end(), interior.begin(), interior.end());
  }
  const std::vector<bool> truth(pos.size(), false);

  const net::Network serial(pos, truth, 1.0, 1);
  const net::Network parallel(pos, truth, 1.0, 8);
  ASSERT_EQ(serial.num_nodes(), parallel.num_nodes());
  for (NodeId v = 0; v < serial.num_nodes(); ++v) {
    const auto a = serial.neighbors(v);
    const auto b = parallel.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << v;
  }

  // Brute-force cross-check of the dense-grid sweep.
  for (NodeId i = 0; i < serial.num_nodes(); ++i) {
    for (NodeId j = 0; j < serial.num_nodes(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(serial.are_neighbors(i, j), serial.true_distance(i, j) <= 1.0)
          << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Equality with the unsharded session

TEST(Sharded, TrueCoordsEqualsUnshardedOnSphere) {
  const net::Network net = sphere_network(21);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);

  ShardedDetector sharded(net, cells(2, 2, 2));
  EXPECT_GT(sharded.num_shards(), 1u);
  expect_equal_detection(sharded.run(cfg), expected, "sphere true coords");
}

TEST(Sharded, NoisyLocalizationEqualsUnsharded) {
  // The strong contract: measurement noise, SMACOF restarts, and frame
  // membership must reproduce bit-for-bit inside every shard.
  const net::Network net = sphere_network(23, 140, 230);
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.noise_seed = 9;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);

  ShardedDetector sharded(net, cells(2, 1, 2));
  EXPECT_GT(sharded.num_shards(), 1u);
  expect_equal_detection(sharded.run(cfg), expected, "sphere noisy");
}

TEST(Sharded, LocalizeStatsMergeAcrossShards) {
  // The global result's localization effort accounting is the sum over
  // shard sessions. Halo nodes are built by every shard that sees them, so
  // the merged frame count is at least the unsharded one — and never zero
  // on a noisy run.
  const net::Network net = sphere_network(23, 140, 230);
  PipelineConfig cfg;
  cfg.measurement_error = 0.2;
  cfg.noise_seed = 9;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);
  ASSERT_GT(expected.localize_stats.frames_built, 0u);

  ShardedDetector sharded(net, cells(2, 1, 2));
  const PipelineResult got = sharded.run(cfg);
  EXPECT_GE(got.localize_stats.frames_built,
            expected.localize_stats.frames_built);
  EXPECT_GE(got.localize_stats.sweeps_executed,
            expected.localize_stats.sweeps_executed);
  EXPECT_LE(got.localize_stats.sweeps_executed,
            got.localize_stats.sweep_budget);
}

TEST(Sharded, CubeWithHoleEqualsUnshardedBothPaths) {
  const net::Network net = fig1_hole_network(31);
  for (const bool true_coords : {true, false}) {
    PipelineConfig cfg;
    cfg.use_true_coordinates = true_coords;
    if (!true_coords) {
      cfg.measurement_error = 0.15;
      cfg.noise_seed = 4;
    }
    DetectionSession reference(net);
    const PipelineResult expected = reference.run(cfg);
    ShardedDetector sharded(net, cells(2, 2, 1));
    expect_equal_detection(sharded.run(cfg), expected,
                           true_coords ? "fig1 true coords" : "fig1 noisy");
  }
}

TEST(Sharded, SeamStraddlingHoleIsStitched) {
  // fig1's interior hole sits mid-box; a 2-cell cut through the middle
  // splits its boundary group across the seam, so the group must come out
  // of the union-find stitch — and match the unsharded grouping exactly.
  const net::Network net = fig1_hole_network(33);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);
  ASSERT_GE(expected.groups.count(), 1u);

  ShardedDetector sharded(net, cells(2, 1, 1));
  ASSERT_EQ(sharded.num_shards(), 2u);
  const PipelineResult got = sharded.run(cfg);
  expect_equal_detection(got, expected, "straddling hole");

  // At least one group genuinely straddles the x seam: with a 2×1×1 cut,
  // ownership is decided by which side of the AABB midplane a node sits on.
  double min_x = net.position(0).x, max_x = min_x;
  for (NodeId v = 1; v < net.num_nodes(); ++v) {
    min_x = std::min(min_x, net.position(v).x);
    max_x = std::max(max_x, net.position(v).x);
  }
  const double mid_x = 0.5 * (min_x + max_x);
  bool straddles = false;
  for (const auto& grp : got.groups.groups) {
    bool left = false, right = false;
    for (NodeId v : grp) {
      (net.position(v).x < mid_x ? left : right) = true;
    }
    if (left && right) straddles = true;
  }
  EXPECT_TRUE(straddles);
}

TEST(Sharded, StitchMergesWhenNoShardSeesTheWholeBoundary) {
  // 12-range slab cut into 4 cells: each shard's view (cell + 3-range
  // halo) covers at most 9 ranges, so the outer boundary group cannot be
  // discovered whole by any single shard — it must come out of seam
  // stitching, and still match the unsharded grouping.
  const net::Network net = slab_network(35);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);

  ShardedDetector sharded(net, cells(4, 1, 1));
  ASSERT_EQ(sharded.num_shards(), 4u);
  expect_equal_detection(sharded.run(cfg), expected, "slab stitch");
  EXPECT_GE(sharded.last_stitch_merges(), 1u);
}

TEST(Sharded, ShardAndThreadCountInvariant) {
  const net::Network net = sphere_network(41);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);

  for (const ShardedConfig& sc :
       {cells(1, 1, 1, 1), cells(2, 2, 1, 2), cells(4, 2, 2, 8)}) {
    ShardedDetector sharded(net, sc);
    expect_equal_detection(sharded.run(cfg), expected, "shard grid sweep");
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    ShardedDetector sharded(net, cells(2, 2, 2, threads));
    expect_equal_detection(sharded.run(cfg), expected, "thread sweep");
  }
}

TEST(Sharded, ConfidenceAndQualityMatchUnsharded) {
  obs::set_enabled(true);
  const net::Network net = sphere_network(43);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  const PipelineResult expected = reference.run(cfg);
  ShardedDetector sharded(net, cells(2, 2, 1));
  const PipelineResult got = sharded.run(cfg);
  obs::set_enabled(false);

  expect_equal_detection(got, expected, "obs run");
  ASSERT_EQ(got.ubf_confidence.size(), expected.ubf_confidence.size());
  EXPECT_EQ(got.ubf_confidence, expected.ubf_confidence);
  ASSERT_EQ(got.group_quality.size(), expected.group_quality.size());
  for (std::size_t i = 0; i < got.group_quality.size(); ++i) {
    EXPECT_EQ(got.group_quality[i].score, expected.group_quality[i].score);
    EXPECT_EQ(got.group_quality[i].flood_margin,
              expected.group_quality[i].flood_margin);
  }
}

// ---------------------------------------------------------------------------
// Deltas

TEST(Sharded, CrashDeltaEqualsUnshardedSession) {
  const net::Network net = sphere_network(51);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;

  DetectionSession reference(net);
  ShardedDetector sharded(net, cells(2, 2, 2));
  expect_equal_detection(sharded.run(cfg), reference.run(cfg), "pre-delta");

  NetworkDelta delta;
  delta.crashed = {5, 17, 60};
  reference.apply(delta);
  sharded.apply(delta);
  EXPECT_EQ(sharded.num_alive(), net.num_nodes() - 3);
  expect_equal_detection(sharded.run(cfg), reference.run(cfg), "post-crash");

  NetworkDelta revive;
  revive.revived = {17};
  reference.apply(revive);
  sharded.apply(revive);
  expect_equal_detection(sharded.run(cfg), reference.run(cfg), "post-revive");
}

TEST(Sharded, HaloCrashDirtiesEveryCoveringShard) {
  const net::Network net = slab_network(61);
  ShardedDetector sharded(net, cells(4, 1, 1));
  ASSERT_EQ(sharded.num_shards(), 4u);

  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  // Pin the degenerate vote: the first death otherwise flips it globally
  // (matching the unsharded session), which would recompute UBF on every
  // shard and mask the routing behavior under test.
  cfg.ubf.degenerate_is_boundary = false;
  (void)sharded.run(cfg);

  // A node just left of the first seam (x = 3 of 12): owned by shard 0,
  // inside shard 1's halo (3 hops ≈ 3 world units), outside shard 3's.
  NodeId seam_node = net::kInvalidNode;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const double x = net.position(v).x;
    if (x > 2.4 && x < 2.9 && sharded.shards_of(v).size() >= 2) {
      seam_node = v;
      break;
    }
  }
  ASSERT_NE(seam_node, net::kInvalidNode);
  const auto covering = sharded.shards_of(seam_node);
  ASSERT_GE(covering.size(), 2u);
  EXPECT_LT(covering.size(), sharded.num_shards());

  // True-coords sessions have no Localize stage; the alive-set change shows
  // up as a partial UBF re-test of the crash's neighborhood.
  std::vector<std::uint64_t> runs_before(sharded.num_shards());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& st = sharded.shard_session(s).stats().ubf;
    runs_before[s] = st.full_runs + st.partial_runs;
  }

  NetworkDelta delta;
  delta.crashed = {seam_node};
  sharded.apply(delta);
  (void)sharded.run(cfg);

  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& st = sharded.shard_session(s).stats().ubf;
    const std::uint64_t runs = st.full_runs + st.partial_runs;
    const bool covers =
        std::find(covering.begin(), covering.end(),
                  static_cast<std::uint32_t>(s)) != covering.end();
    if (covers) {
      EXPECT_GT(runs, runs_before[s]) << "covering shard " << s
                                      << " did not re-localize";
    } else {
      EXPECT_EQ(runs, runs_before[s]) << "distant shard " << s
                                      << " re-localized needlessly";
    }
  }
}

TEST(Sharded, UnchangedShardsReuseTheirFloods) {
  const net::Network net = slab_network(63);
  ShardedDetector sharded(net, cells(4, 1, 1));
  ASSERT_EQ(sharded.num_shards(), 4u);
  PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  // Pin the degenerate vote (see HaloCrashDirtiesEveryCoveringShard): the
  // first death would otherwise re-test every shard's degenerate nodes.
  cfg.ubf.degenerate_is_boundary = false;
  obs::set_enabled(true);
  (void)sharded.run(cfg);

  // A node deep inside the first cell (x < 0.5 of 12): seen by its owner
  // and, as halo, by the second shard only. Its crash changes candidate
  // flags within 2 hops (x < 2.5) and verdicts within 3 more (x < 5.5), so
  // neither reaches the last shard's view (x >= 6), and the candidates do
  // not reach the third shard's (x >= 3).
  NodeId deep = net::kInvalidNode;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.position(v).x < 0.5) {
      deep = v;
      break;
    }
  }
  ASSERT_NE(deep, net::kInvalidNode);
  const auto covering = sharded.shards_of(deep);
  ASSERT_EQ(covering.size(), 2u);

  std::vector<std::uint64_t> runs_before(sharded.num_shards());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& st = sharded.shard_session(s).stats().ubf;
    runs_before[s] = st.full_runs + st.partial_runs;
  }
  const std::uint64_t iff_reused = counter("shard.iff_reused");
  const std::uint64_t group_reused = counter("shard.group_reused");

  NetworkDelta delta;
  delta.crashed = {deep};
  sharded.apply(delta);
  const PipelineResult got = sharded.run(cfg);
  obs::set_enabled(false);

  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const auto& st = sharded.shard_session(s).stats().ubf;
    if (std::find(covering.begin(), covering.end(),
                  static_cast<std::uint32_t>(s)) == covering.end()) {
      EXPECT_EQ(st.full_runs + st.partial_runs, runs_before[s])
          << "distant shard " << s << " re-ran UBF";
    }
  }
  EXPECT_GE(counter("shard.iff_reused"), iff_reused + 2);
  EXPECT_GE(counter("shard.group_reused"), group_reused + 1);
  expect_equal_detection(got, cold_reference(net, sharded, cfg),
                         "after reuse");
}

// Incremental sharded detection equals a cold unsharded session after
// every step of a crash / revive / within-cell move soak, at 1 and 4
// threads, with obs off and on (then also confidence and group quality,
// which reads the IFF counts).
TEST(ShardedSoak, IncrementalMatchesColdUnshardedEveryStep) {
  for (const bool obs_on : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      net::Network net = fig1_hole_network(95);
      const std::size_t n = net.num_nodes();
      ShardedDetector sharded(net, cells(2, 2, 1, threads));
      PipelineConfig cfg;
      cfg.use_true_coordinates = true;
      obs::set_enabled(obs_on);
      Rng rng(500 + threads);
      std::vector<NodeId> dead;
      std::size_t moves = 0;
      for (std::size_t step = 0; step < 10; ++step) {
        NetworkDelta delta;
        const std::size_t revives =
            std::min<std::size_t>(rng.uniform_index(3), dead.size());
        for (std::size_t k = 0; k < revives; ++k) {
          const std::size_t pick = rng.uniform_index(dead.size());
          delta.revived.push_back(dead[pick]);
          dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        const std::size_t crashes = rng.uniform_index(4);
        while (delta.crashed.size() < crashes) {
          const auto v = static_cast<NodeId>(rng.uniform_index(n));
          if (sharded.is_alive(v) &&
              std::find(delta.crashed.begin(), delta.crashed.end(), v) ==
                  delta.crashed.end()) {
            delta.crashed.push_back(v);
          }
        }
        dead.insert(dead.end(), delta.crashed.begin(), delta.crashed.end());
        sharded.apply(delta);
        // Small moves; the detector rejects (before any state change) the
        // ones that would change shard membership.
        for (int k = 0; k < 3; ++k) {
          const auto v = static_cast<NodeId>(rng.uniform_index(n));
          const geom::Vec3 p = net.position(v);
          NetworkDelta move;
          move.moved.push_back({v,
                                {p.x + rng.uniform(-0.15, 0.15),
                                 p.y + rng.uniform(-0.15, 0.15),
                                 p.z + rng.uniform(-0.15, 0.15)}});
          try {
            sharded.apply(move);
            ++moves;
          } catch (const InvalidArgument&) {
          }
        }
        const PipelineResult got = sharded.run(cfg);
        const PipelineResult want = cold_reference(net, sharded, cfg);
        const std::string what = "step " + std::to_string(step) +
                                 " threads " + std::to_string(threads) +
                                 (obs_on ? " obs" : "");
        expect_equal_detection(got, want, what.c_str());
        if (obs_on) expect_equal_obs_outputs(got, want, what.c_str());
      }
      obs::set_enabled(false);
      EXPECT_GT(moves, 0u);
      std::uint64_t partial_runs = 0;
      for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
        partial_runs += sharded.shard_session(s).stats().ubf.partial_runs;
      }
      EXPECT_GT(partial_runs, 0u);
    }
  }
}

TEST(Sharded, RejectsMovesFaultsAndBadDeltas) {
  const net::Network net = sphere_network(71);
  ShardedDetector sharded(net, cells(2, 1, 1));

  PipelineConfig faulty;
  faulty.faults.emplace();
  EXPECT_THROW((void)sharded.run(faulty), InvalidArgument);

  PipelineConfig narrow;
  narrow.iff.ttl = 5;  // wider than the default 3-hop halo
  EXPECT_THROW((void)sharded.run(narrow), InvalidArgument);

  NetworkDelta move_delta;
  move_delta.moved.push_back({0, net.position(0)});
  EXPECT_THROW(sharded.apply(move_delta), InvalidArgument);

  NetworkDelta bad;
  bad.crashed = {static_cast<NodeId>(net.num_nodes())};
  EXPECT_THROW(sharded.apply(bad), InvalidArgument);
  bad.crashed = {1, 1};
  EXPECT_THROW(sharded.apply(bad), InvalidArgument);
  bad.crashed = {1};
  sharded.apply(bad);
  EXPECT_THROW(sharded.apply(bad), InvalidArgument);  // already dead
  NetworkDelta rev;
  rev.revived = {2};
  EXPECT_THROW(sharded.apply(rev), InvalidArgument);  // alive
}

TEST(Sharded, ShardInfoAndConfigValidation) {
  const net::Network net = sphere_network(81);
  EXPECT_THROW(
      {
        ShardedConfig cfg;
        cfg.halo_hops = 2;
        ShardedDetector bad(net, cfg);
      },
      InvalidArgument);

  ShardedDetector sharded(net, cells(2, 2, 1));
  std::size_t owned_total = 0;
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    const ShardInfo& info = sharded.shard_info(s);
    EXPECT_GT(info.owned_nodes, 0u);
    owned_total += info.owned_nodes;
  }
  EXPECT_EQ(owned_total, net.num_nodes());

  // Every node routes to at least its owner.
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    EXPECT_GE(sharded.shards_of(v).size(), 1u);
  }
}

}  // namespace
}  // namespace ballfit::core
