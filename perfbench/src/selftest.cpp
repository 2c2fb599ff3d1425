/// \file selftest.cpp
/// Shows that every benchmark check can fail: each check first passes on
/// a genuine detection of the Fig. 1 network (true coordinates), then is
/// fed a corrupted input and must report it. Exits 1 when a check passes
/// a corrupted input or rejects a genuine one.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/iff.hpp"
#include "core/session.hpp"
#include "mesh/surface_builder.hpp"
#include "model/zoo.hpp"
#include "workload.hpp"

namespace {

using namespace ballfit;
using namespace perfbench;

int g_bad = 0;

void expect(bool should_pass, const std::string& error, const char* what) {
  const bool passed = error.empty();
  if (passed == should_pass) {
    std::printf("ok      %-44s %s\n", what,
                passed ? "(passes)" : ("(fails: " + error + ")").c_str());
  } else {
    ++g_bad;
    std::printf("WRONG   %-44s %s\n", what,
                passed ? "passed a corrupted input" : error.c_str());
  }
}

/// Ten nodes on a line, 0.9 R apart: node k is k hops from node 0.
net::Network line_network() {
  std::vector<geom::Vec3> pos;
  for (int k = 0; k < 10; ++k) pos.push_back({0.9 * k, 0.0, 0.0});
  return net::Network(pos, std::vector<bool>(10, false), 1.0);
}

}  // namespace

int main() {
  const Input in = build_paper_input(1.0, /*seed=*/1, /*threads=*/4);
  const net::Network& network = in.network;
  core::PipelineConfig cfg;
  cfg.use_true_coordinates = true;
  cfg.threads = 4;
  core::DetectionSession session(network);
  const core::PipelineResult r = session.run(cfg);
  const std::vector<bool> truth =
      true_surface(*in.scenario.shape, network, 0.1);
  const Score s = score(truth, r.boundary);
  const mesh::SurfaceResult surfaces =
      mesh::build_surfaces(network, r.boundary, r.groups);
  std::printf("fig1 scale 1.0 seed 1, true coordinates: %zu nodes, true "
              "surface %zu, correct %zu, mistaken %zu, missing %zu, %zu "
              "groups, %zu surfaces\n",
              network.num_nodes(), s.truth, s.correct, s.mistaken, s.missing,
              r.groups.count(), surfaces.surfaces.size());
  if (r.groups.count() < 2 || surfaces.surfaces.empty()) {
    std::printf("WRONG   the genuine input lacks two groups and a mesh\n");
    return 1;
  }

  // Ground truth: the shape's own surface, not the network's labels.
  std::size_t labelled = 0;
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    labelled += network.is_ground_truth_boundary(v) == truth[v];
  }
  expect(true,
         labelled == network.num_nodes() ? "" : "truth disagrees with labels",
         "signed-distance truth matches sampling");

  // Accuracy bounds.
  expect(true, check_accuracy(s, 0.05, 0.05), "accuracy: genuine");
  Score bad = s;
  bad.mistaken = s.truth / 4;
  expect(false, check_accuracy(bad, 0.05, 0.05), "accuracy: 25% mistaken");
  bad = s;
  bad.missing = s.truth / 4;
  expect(false, check_accuracy(bad, 0.05, 0.05), "accuracy: 25% missing");

  // Fig. 11(b) hop bound.
  expect(true, check_mistaken_near_correct(network, truth, r.boundary, 3),
         "mistaken within 3 hops: genuine");
  {
    const net::Network line = line_network();
    std::vector<bool> line_truth(10, false);
    line_truth[0] = true;
    std::vector<bool> flagged(10, false);
    flagged[0] = true;
    flagged[3] = true;
    expect(true, check_mistaken_near_correct(line, line_truth, flagged, 3),
           "mistaken within 3 hops: 3 hops on a line");
    flagged[4] = true;
    expect(false, check_mistaken_near_correct(line, line_truth, flagged, 3),
           "mistaken within 3 hops: 4 hops on a line");
  }

  // Grouping.
  expect(true, check_groups_are_components(network, r.boundary, r.groups),
         "groups are components: genuine");
  {
    core::BoundaryGroups merged = r.groups;
    merged.groups[0].insert(merged.groups[0].end(), merged.groups[1].begin(),
                            merged.groups[1].end());
    merged.groups.erase(merged.groups.begin() + 1);
    expect(false, check_groups_are_components(network, r.boundary, merged),
           "groups are components: two groups merged");
  }
  {
    core::BoundaryGroups split = r.groups;
    std::vector<net::NodeId>& g = split.groups[0];
    const std::vector<net::NodeId> half(g.begin() + g.size() / 2, g.end());
    g.resize(g.size() / 2);
    split.groups.push_back(half);
    expect(false, check_groups_are_components(network, r.boundary, split),
           "groups are components: one group split");
  }
  {
    std::vector<bool> unflagged = r.boundary;
    unflagged[r.groups.groups[0].front()] = false;
    expect(false, check_groups_are_components(network, unflagged, r.groups),
           "groups are components: member unflagged");
  }
  expect(true, check_group_count(r.groups, 2, 20), "group count: holes + 1");
  expect(false, check_group_count(r.groups, 3, 20), "group count: off by one");
  {
    core::BoundaryGroups merged = r.groups;
    merged.groups[0].insert(merged.groups[0].end(), merged.groups[1].begin(),
                            merged.groups[1].end());
    merged.groups.erase(merged.groups.begin() + 1);
    expect(false, check_group_count(merged, 2, 20),
           "group count: two groups merged");
  }

  // Flag equality (IFF oracle, layer-by-layer, sharded, churn).
  core::IffConfig oracle;
  oracle.use_message_passing = false;
  const std::vector<bool> oracle_flags =
      core::iff_filter(network, r.ubf_candidates, oracle);
  expect(true, check_same_flags(oracle_flags, r.boundary, "IFF oracle"),
         "same flags: IFF oracle vs message passing");
  {
    std::vector<bool> flipped = r.boundary;
    flipped[flipped.size() / 2] = !flipped[flipped.size() / 2];
    expect(false, check_same_flags(oracle_flags, flipped, "IFF oracle"),
           "same flags: one flag flipped");
  }

  // Meshes.
  for (const mesh::BoundarySurface& surface : surfaces.surfaces) {
    expect(true, check_mesh(surface, r.boundary), "mesh: genuine surface");
  }
  {
    std::vector<bool> cleared = r.boundary;
    cleared[surfaces.surfaces[0].mesh.vertex_node(0)] = false;
    expect(false, check_mesh(surfaces.surfaces[0], cleared),
           "mesh: vertex not a boundary node");
  }
  {
    // Edge (0, 1) with apexes 2, 3 and 4: three faces on one edge.
    const std::vector<net::NodeId>& g = r.groups.groups[0];
    std::vector<net::NodeId> nodes(g.begin(), g.begin() + 5);
    std::vector<geom::Vec3> pos;
    for (const net::NodeId v : nodes) pos.push_back(network.position(v));
    mesh::BoundarySurface fan;
    fan.mesh = mesh::TriMesh(nodes, pos);
    fan.mesh.add_edge(0, 1);
    for (std::uint32_t apex = 2; apex < 5; ++apex) {
      fan.mesh.add_edge(0, apex);
      fan.mesh.add_edge(1, apex);
    }
    expect(false, check_mesh(fan, r.boundary), "mesh: edge with three faces");
  }

  std::printf(g_bad == 0 ? "self-test passed\n"
                         : "self-test FAILED: %d checks misbehaved\n",
              g_bad);
  return g_bad == 0 ? 0 : 1;
}
