#include "core/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "geom/aabb.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

using net::NodeId;
using net::kInvalidNode;

namespace {

/// The cell lattice: AABB split into kx × ky × kz boxes. Cells are
/// addressed per axis; a point's owning cell clamps into range so boundary
/// nodes (and nodes that moved outside the original AABB) stay owned.
struct CellLattice {
  geom::Vec3 origin{};
  double step[3] = {0.0, 0.0, 0.0};
  std::size_t k[3] = {1, 1, 1};

  std::size_t axis_cell(double coord, int d) const {
    if (step[d] <= 0.0 || k[d] <= 1) return 0;
    const double t = (coord - (d == 0 ? origin.x : d == 1 ? origin.y
                                                          : origin.z)) /
                     step[d];
    auto c = static_cast<std::ptrdiff_t>(std::floor(t));
    if (c < 0) c = 0;
    if (static_cast<std::size_t>(c) >= k[d]) {
      c = static_cast<std::ptrdiff_t>(k[d]) - 1;
    }
    return static_cast<std::size_t>(c);
  }

  std::size_t cell_of(const geom::Vec3& p) const {
    return (axis_cell(p.z, 2) * k[1] + axis_cell(p.y, 1)) * k[0] +
           axis_cell(p.x, 0);
  }

  std::size_t num_cells() const { return k[0] * k[1] * k[2]; }
};

CellLattice make_lattice(const net::Network& network,
                         const ShardedConfig& config) {
  geom::Aabb box;
  for (const geom::Vec3& p : network.positions()) box.expand(p);
  const geom::Vec3 ext = box.extent();
  const double r = network.radio_range();

  CellLattice lat;
  lat.origin = box.min;
  const double e[3] = {ext.x, ext.y, ext.z};

  std::size_t k[3] = {config.cells_x, config.cells_y, config.cells_z};
  if (k[0] == 0 && k[1] == 0 && k[2] == 0) {
    const double per_shard = static_cast<double>(
        std::max<std::size_t>(1, config.target_nodes_per_shard));
    const double want =
        std::max(1.0, std::round(static_cast<double>(network.num_nodes()) /
                                 per_shard));
    // Distribute cells over the axes that have room, proportional to
    // extent; near-flat axes (extent below one radio range) stay uncut.
    double active_prod = 1.0;
    int active = 0;
    for (int d = 0; d < 3; ++d) {
      k[d] = 1;
      if (e[d] > r) {
        active_prod *= e[d];
        ++active;
      }
    }
    if (active > 0) {
      const double s = std::pow(want / active_prod, 1.0 / active);
      for (int d = 0; d < 3; ++d) {
        if (e[d] > r) {
          k[d] = static_cast<std::size_t>(
              std::max<long long>(1, std::llround(e[d] * s)));
        }
      }
    }
  } else {
    for (auto& kd : k) kd = std::max<std::size_t>(1, kd);
  }
  for (int d = 0; d < 3; ++d) {
    lat.k[d] = k[d];
    lat.step[d] = k[d] > 0 && e[d] > 0.0
                      ? e[d] / static_cast<double>(k[d])
                      : 0.0;
  }
  return lat;
}

/// Everything a shard's IFF or grouping flood reads besides the shard
/// subnetwork — keyed like the session's IFF and Group stages. Grouping
/// leaves the IFF-only fields at their defaults.
struct FloodKey {
  std::vector<bool> input;  ///< the shard's local input flags
  std::uint32_t theta = 0;
  std::uint32_t ttl = 0;
  bool message_passing = false;
  std::uint32_t repeat = 0;
  bool counts = false;  ///< per-node IFF counts collected (obs on)
  std::uint64_t topology = 0;

  bool operator==(const FloodKey&) const = default;
};

}  // namespace

struct ShardedDetector::Shard {
  explicit Shard(net::Network::Subnetwork sub)
      : to_global(std::move(sub.to_global)), net(std::move(sub.net)) {}

  std::vector<NodeId> to_global;    ///< sorted members (owned + halo)
  net::Network net;                 ///< induced subnetwork
  std::vector<char> owned;          ///< local id -> owns flag
  std::vector<NodeId> owned_local;  ///< local ids of owned nodes, ascending
  std::optional<DetectionSession> session;
  ShardInfo info;
  /// Bumped by every move routed to this shard: adjacency identity for the
  /// flood caches (equal flags alone cannot see an edge change).
  std::uint64_t topology_version = 0;

  // Single-entry caches of the phase-2 IFF and phase-3 grouping floods.
  // Each artifact is a pure function of (subnetwork, key), so a key match
  // reuses it bit for bit.
  std::optional<FloodKey> iff_key;
  std::vector<bool> iff_verdicts;         ///< local ids
  std::vector<std::uint32_t> iff_counts;  ///< local ids; empty unless obs
  sim::RunStats iff_stats;
  std::optional<FloodKey> group_key;
  std::vector<std::vector<NodeId>> groups;  ///< global ids
  sim::RunStats group_stats;

  NodeId local_of(NodeId g) const {
    const auto it =
        std::lower_bound(to_global.begin(), to_global.end(), g);
    BALLFIT_ASSERT(it != to_global.end() && *it == g);
    return static_cast<NodeId>(it - to_global.begin());
  }
};

ShardedDetector::ShardedDetector(const net::Network& network,
                                 ShardedConfig config)
    : network_(&network), config_(config) {
  BALLFIT_SPAN("shard.partition");
  const std::size_t n = network.num_nodes();
  BALLFIT_REQUIRE(n > 0, "cannot shard an empty network");
  BALLFIT_REQUIRE(config_.halo_hops >= 3,
                  "halo_hops must be >= 3 (2-hop frames + 1 witness hop)");

  const CellLattice lat = make_lattice(network, config_);
  const std::size_t num_cells = lat.num_cells();
  const double halo =
      static_cast<double>(config_.halo_hops) * network.radio_range();

  // Pass 1 over nodes: owning cell + the Chebyshev-inflated cell range the
  // node is halo of (a superset of the Euclidean rim — conservative, and
  // cheap to compute without per-cell distance tests).
  std::vector<std::uint32_t> own_cell(n);
  std::vector<std::size_t> cell_members(num_cells, 0);
  const auto halo_range = [&](const geom::Vec3& p, std::size_t lo[3],
                              std::size_t hi[3]) {
    const double c[3] = {p.x, p.y, p.z};
    for (int d = 0; d < 3; ++d) {
      lo[d] = lat.axis_cell(c[d] - halo, d);
      hi[d] = lat.axis_cell(c[d] + halo, d);
    }
  };
  for (NodeId i = 0; i < n; ++i) {
    const geom::Vec3& p = network.position(i);
    own_cell[i] = static_cast<std::uint32_t>(lat.cell_of(p));
    std::size_t lo[3], hi[3];
    halo_range(p, lo, hi);
    for (std::size_t z = lo[2]; z <= hi[2]; ++z)
      for (std::size_t y = lo[1]; y <= hi[1]; ++y)
        for (std::size_t x = lo[0]; x <= hi[0]; ++x) {
          ++cell_members[(z * lat.k[1] + y) * lat.k[0] + x];
        }
  }

  // Cells with no owned node never report anything — skip them entirely.
  std::vector<std::size_t> owned_per_cell(num_cells, 0);
  for (NodeId i = 0; i < n; ++i) ++owned_per_cell[own_cell[i]];
  std::vector<std::uint32_t> shard_of_cell(num_cells,
                                           static_cast<std::uint32_t>(-1));
  std::uint32_t num_shards = 0;
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (owned_per_cell[c] > 0) shard_of_cell[c] = num_shards++;
  }

  std::vector<std::vector<NodeId>> members(num_shards);
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (shard_of_cell[c] != static_cast<std::uint32_t>(-1)) {
      members[shard_of_cell[c]].reserve(cell_members[c]);
    }
  }
  // Ascending node loop keeps every member list sorted.
  for (NodeId i = 0; i < n; ++i) {
    const geom::Vec3& p = network.position(i);
    std::size_t lo[3], hi[3];
    halo_range(p, lo, hi);
    for (std::size_t z = lo[2]; z <= hi[2]; ++z)
      for (std::size_t y = lo[1]; y <= hi[1]; ++y)
        for (std::size_t x = lo[0]; x <= hi[0]; ++x) {
          const std::uint32_t s =
              shard_of_cell[(z * lat.k[1] + y) * lat.k[0] + x];
          if (s != static_cast<std::uint32_t>(-1)) members[s].push_back(i);
        }
  }

  shards_.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    auto shard =
        std::make_unique<Shard>(network.induced_subnetwork(members[s]));
    const std::size_t m = shard->to_global.size();
    shard->owned.assign(m, 0);
    for (std::size_t l = 0; l < m; ++l) {
      const NodeId g = shard->to_global[l];
      if (shard_of_cell[own_cell[g]] == s) {
        shard->owned[l] = 1;
        shard->owned_local.push_back(static_cast<NodeId>(l));
      }
    }
    shard->info.owned_nodes = shard->owned_local.size();
    shard->info.halo_nodes = m - shard->owned_local.size();
    // Mutable binding: the shard owns its subnetwork by value, and only
    // the session mutates it (move deltas routed through apply()). The
    // owned nodes are the session's work set: the halo is input only.
    shard->session.emplace(shard->net, shard->owned);
    shards_.push_back(std::move(shard));
  }

  // Persist the lattice geometry: apply() validates and routes move
  // deltas against the construction-time grid (membership is positional
  // and never changes after construction).
  lattice_origin_ = lat.origin;
  for (int d = 0; d < 3; ++d) {
    lattice_step_[d] = lat.step[d];
    lattice_k_[d] = lat.k[d];
  }
  halo_dist_ = halo;
  own_cell_ = std::move(own_cell);
  shard_of_cell_ = std::move(shard_of_cell);

  // Node -> shards routing CSR (ascending shard ids per node, because the
  // shard loop below visits shards in order).
  route_offsets_.assign(n + 1, 0);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    for (NodeId g : shards_[s]->to_global) ++route_offsets_[g + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    route_offsets_[i + 1] += route_offsets_[i];
  }
  route_shards_.resize(route_offsets_[n]);
  {
    std::vector<std::size_t> cursor(route_offsets_.begin(),
                                    route_offsets_.end() - 1);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (NodeId g : shards_[s]->to_global) {
        route_shards_[cursor[g]++] = s;
      }
    }
  }

  alive_.assign(n, 1);
  num_alive_ = n;
}

ShardedDetector::ShardedDetector(net::Network& network, ShardedConfig config)
    : ShardedDetector(static_cast<const net::Network&>(network),
                      std::move(config)) {
  mutable_network_ = &network;
}

ShardedDetector::~ShardedDetector() = default;
ShardedDetector::ShardedDetector(ShardedDetector&&) noexcept = default;
ShardedDetector& ShardedDetector::operator=(ShardedDetector&&) noexcept =
    default;

const ShardInfo& ShardedDetector::shard_info(std::size_t s) const {
  BALLFIT_REQUIRE(s < shards_.size(), "shard index out of range");
  return shards_[s]->info;
}

const DetectionSession& ShardedDetector::shard_session(std::size_t s) const {
  BALLFIT_REQUIRE(s < shards_.size(), "shard index out of range");
  return *shards_[s]->session;
}

std::span<const std::uint32_t> ShardedDetector::shards_of(NodeId g) const {
  BALLFIT_REQUIRE(g < network_->num_nodes(), "node id out of range");
  return {route_shards_.data() + route_offsets_[g],
          route_offsets_[g + 1] - route_offsets_[g]};
}

PipelineResult ShardedDetector::run(const PipelineConfig& config) {
  BALLFIT_REQUIRE(!config.faults.has_value(),
                  "ShardedDetector does not support fault injection: the "
                  "loss/duplication channel RNG is call-order dependent, so "
                  "per-shard replay diverges from the unsharded stream. "
                  "ROADMAP caveat: re-keying the channel draw per (stage, "
                  "node) would make sharded faults reproducible; until then "
                  "run faulted configs through an unsharded "
                  "DetectionSession");
  BALLFIT_REQUIRE(config.iff.ttl <= config_.halo_hops,
                  "IFF ttl exceeds the halo width; widen "
                  "ShardedConfig::halo_hops to at least the ttl");
  BALLFIT_REQUIRE(!config.escalate.enabled || config_.halo_hops >= 6,
                  "escalation needs ShardedConfig::halo_hops >= 6: an owned "
                  "node's escalated flag reads the plan of seeds up to 3 "
                  "hops away, and each seed's plan reads confidence whose "
                  "inputs reach 3 hops further");

  const std::size_t n = network_->num_nodes();
  const std::size_t num_shards = shards_.size();
  const unsigned threads =
      config_.threads == 0 ? default_threads() : config_.threads;
  const bool obs_on = obs::enabled();

  // Phase 1: each shard runs its session's candidate prefix (Measure →
  // Localize → UBF → Escalate); IFF and grouping are recomputed
  // seam-exactly in phases 2–3. Sessions parallelize across shards, not
  // within. The degenerate-vote flip must mirror the unsharded session,
  // which flips on ANY dead node — a fully-alive shard would otherwise keep
  // the optimistic vote while the global run does not.
  PipelineConfig shard_cfg = config;
  shard_cfg.threads = 1;
  if (num_alive_ < n) shard_cfg.ubf.degenerate_is_boundary = false;

  std::vector<PipelineResult> phase1(num_shards);
  {
    BALLFIT_SPAN("shard.candidates");
    const std::string parent = obs::current_span_path();
    parallel_for(
        num_shards,
        [&](std::size_t s) {
          const obs::SpanPathScope adopt(parent);
          Stopwatch clock;
          phase1[s] = shards_[s]->session->run_candidates(shard_cfg);
          shards_[s]->info.last_detect_ms = clock.elapsed_ms();
        },
        threads);
  }

  // Halo exchange 1: owned UBF candidate flags (exact — see sharded.hpp)
  // into one global vector. Sequential: vector<bool> writes are not
  // bit-safe concurrently, and this is a linear pass.
  PipelineResult result;
  result.ubf_candidates.assign(n, false);
  // Confidence is exchanged whenever the shard sessions produced it: under
  // obs, and on escalated runs (the effort planner forces it on, and the
  // unsharded session publishes it — the equality contract follows).
  const bool want_conf = obs_on || config.escalate.enabled;
  std::vector<float> confidence;
  if (want_conf) confidence.assign(n, 0.0f);
  std::size_t fallbacks = 0;
  std::size_t ubf_tested = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const Shard& shard = *shards_[s];
    const PipelineResult& r = phase1[s];
    for (NodeId l : shard.owned_local) {
      const NodeId g = shard.to_global[l];
      result.ubf_candidates[g] = r.ubf_candidates[l];
      if (want_conf && !r.ubf_confidence.empty()) {
        confidence[g] = r.ubf_confidence[l];
      }
    }
    // Each session counts the fallbacks among its owned nodes only, so the
    // sum is the unsharded count.
    fallbacks += r.frame_fallbacks;
    ubf_tested += shard.session->stats().last_nodes_retested;
    // Localization and escalation effort are per-shard-session; the
    // global view is the sum (witness frames are built, and escalation
    // plans halo nodes, in every shard that needs them, and the merged
    // counters say so rather than pretending otherwise).
    result.localize_stats.merge(r.localize_stats);
    result.effort.merge(r.effort);
  }
  result.frame_fallbacks = fallbacks;

  // The shard's view of a global flag vector, in local ids.
  const auto local_flags = [](const Shard& shard,
                              const std::vector<bool>& global) {
    std::vector<bool> local(shard.to_global.size());
    for (std::size_t l = 0; l < local.size(); ++l) {
      local[l] = global[shard.to_global[l]];
    }
    return local;
  };

  // Phase 2: seam-exact IFF. Each shard floods the exchanged exact
  // candidate flags over its subnetwork; owned verdicts and counts equal
  // the global flood because every ttl-bounded candidate path reaching an
  // owned node stays inside the halo. A shard whose local input is
  // unchanged reuses its last flood.
  sim::ProtocolOptions proto;
  proto.repeat = config.flood_repeat;
  std::atomic<std::uint64_t> iff_reused{0};
  {
    BALLFIT_SPAN("shard.iff");
    parallel_for(
        num_shards,
        [&](std::size_t s) {
          Shard& shard = *shards_[s];
          FloodKey key;
          key.input = local_flags(shard, result.ubf_candidates);
          key.theta = config.iff.theta;
          key.ttl = config.iff.ttl;
          key.message_passing = config.iff.use_message_passing;
          key.repeat = config.flood_repeat;
          key.counts = obs_on;
          key.topology = shard.topology_version;
          if (shard.iff_key == key) {
            ++iff_reused;
            return;
          }
          shard.iff_key.reset();  // a throw below must not leave a stale hit
          shard.iff_stats = {};
          shard.iff_verdicts =
              iff_filter(shard.net, key.input, config.iff, &shard.iff_stats,
                         proto, obs_on ? &shard.iff_counts : nullptr);
          if (!obs_on) shard.iff_counts.clear();
          shard.iff_key = std::move(key);
        },
        threads);
  }

  result.boundary.assign(n, false);
  std::vector<std::uint32_t> counts;
  if (obs_on) counts.assign(n, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const Shard& shard = *shards_[s];
    for (NodeId l : shard.owned_local) {
      const NodeId g = shard.to_global[l];
      result.boundary[g] = shard.iff_verdicts[l];
      if (obs_on) counts[g] = shard.iff_counts[l];
    }
    result.iff_cost += shard.iff_stats;
  }

  // Phase 3: shard-local grouping on the exchanged exact boundary flags
  // (reused when a shard's local boundary is unchanged), then a min-id
  // union-find stitch over global ids. Root tags record which per-shard
  // group first claimed a component; a union across two tags is a seam
  // stitch.
  stitch_merges_ = 0;
  std::atomic<std::uint64_t> group_reused{0};
  if (config.group) {
    {
      BALLFIT_SPAN("shard.group");
      parallel_for(
          num_shards,
          [&](std::size_t s) {
            Shard& shard = *shards_[s];
            FloodKey key;
            key.input = local_flags(shard, result.boundary);
            key.message_passing = config.iff.use_message_passing;
            key.repeat = config.flood_repeat;
            key.topology = shard.topology_version;
            if (shard.group_key == key) {
              ++group_reused;
              return;
            }
            shard.group_key.reset();
            shard.group_stats = {};
            BoundaryGroups local =
                group_boundaries(shard.net, key.input,
                                 config.iff.use_message_passing,
                                 &shard.group_stats, proto);
            shard.groups.clear();
            shard.groups.reserve(local.groups.size());
            for (std::vector<NodeId>& grp : local.groups) {
              for (NodeId& v : grp) v = shard.to_global[v];
              shard.groups.push_back(std::move(grp));
            }
            shard.group_key = std::move(key);
          },
          threads);
    }

    BALLFIT_SPAN("shard.stitch");
    std::vector<NodeId> parent(n, kInvalidNode);
    std::vector<std::uint32_t> tag(n, 0);
    const auto find = [&](NodeId v) {
      while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
      }
      return v;
    };
    std::uint32_t next_tag = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      result.grouping_cost += shards_[s]->group_stats;
      for (const std::vector<NodeId>& grp : shards_[s]->groups) {
        ++next_tag;
        const NodeId anchor = grp[0];
        if (parent[anchor] == kInvalidNode) {
          parent[anchor] = anchor;
          tag[anchor] = next_tag;
        }
        for (std::size_t i = 1; i < grp.size(); ++i) {
          const NodeId u = grp[i];
          if (parent[u] == kInvalidNode) {
            parent[u] = u;
            tag[u] = next_tag;
          }
          const NodeId ra = find(anchor);
          const NodeId rb = find(u);
          if (ra == rb) continue;
          if (tag[ra] != tag[rb]) ++stitch_merges_;
          const NodeId lo = std::min(ra, rb);
          const NodeId hi = std::max(ra, rb);
          parent[hi] = lo;  // min-id root ⇒ the root IS the group leader
        }
      }
    }

    result.groups.leader.assign(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      if (result.boundary[v]) result.groups.leader[v] = find(v);
    }
    // Ascending node scan ⇒ groups appear in leader order with sorted
    // members, matching group_boundaries' output convention.
    std::vector<std::size_t> group_index(n, static_cast<std::size_t>(-1));
    for (NodeId v = 0; v < n; ++v) {
      const NodeId lead = result.groups.leader[v];
      if (lead == kInvalidNode) continue;
      if (lead == v) {
        group_index[lead] = result.groups.groups.size();
        result.groups.groups.emplace_back();
      }
      result.groups.groups[group_index[lead]].push_back(v);
    }
  }

  result.crashed_nodes = n - num_alive_;
  if (want_conf) result.ubf_confidence = std::move(confidence);
  if (obs_on) {
    if (config.group) {
      result.group_quality = score_boundaries(
          result.groups, config.iff.theta, result.ubf_confidence, counts);
    }

    obs::Registry& reg = obs::Registry::global();
    reg.counter("shard.runs").add(1);
    reg.counter("shard.ubf_tested").add(ubf_tested);
    reg.counter("shard.stitch_merges").add(stitch_merges_);
    reg.counter("shard.iff_reused").add(iff_reused.load());
    reg.counter("shard.group_reused").add(group_reused.load());
    reg.gauge("shard.count").set(static_cast<double>(num_shards));
    std::size_t halo_total = 0;
    obs::Histogram& latency = reg.histogram(
        "shard.detect_ms",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
    for (const auto& shard : shards_) {
      halo_total += shard->info.halo_nodes;
      latency.observe(shard->info.last_detect_ms);
    }
    reg.gauge("shard.halo_nodes").set(static_cast<double>(halo_total));
  }
  return result;
}

void ShardedDetector::apply(const NetworkDelta& delta) {
  BALLFIT_REQUIRE(delta.moved.empty() || mutable_network_ != nullptr,
                  "NetworkDelta contains moves but the detector observes a "
                  "const network — construct the ShardedDetector with a "
                  "mutable net::Network to enable node motion");
  const std::size_t n = network_->num_nodes();
  // Validate the whole delta against the global alive state before any
  // mutation (mirrors DetectionSession::apply).
  const auto check_list = [&](const std::vector<NodeId>& ids,
                              bool want_alive, const char* what) {
    std::vector<NodeId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    BALLFIT_REQUIRE(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "duplicate node id in NetworkDelta list");
    for (NodeId v : ids) {
      BALLFIT_REQUIRE(v < n, "NetworkDelta node id out of range");
      BALLFIT_REQUIRE((alive_[v] != 0) == want_alive, what);
    }
  };
  check_list(delta.crashed, true, "crash of an already-dead node");
  check_list(delta.revived, false, "revive of an already-alive node");

  // Moves: membership is positional and fixed at construction, so a move
  // is admissible only while it changes nothing about who must see the
  // node — it must stay in its owning cell, and every shard whose rim
  // contains the post-move position must already hold the node as a
  // member. (Shards that saw the old position but not the new one keep
  // the node as a harmless extra member — induced adjacency drops the
  // out-of-range edges.) Both checks run before any state changes.
  if (!delta.moved.empty()) {
    CellLattice lat;
    lat.origin = lattice_origin_;
    for (int d = 0; d < 3; ++d) {
      lat.step[d] = lattice_step_[d];
      lat.k[d] = lattice_k_[d];
    }
    std::vector<NodeId> moved_ids;
    moved_ids.reserve(delta.moved.size());
    for (const net::NodeMove& m : delta.moved) {
      BALLFIT_REQUIRE(m.node < n, "NetworkDelta node id out of range");
      moved_ids.push_back(m.node);
    }
    std::sort(moved_ids.begin(), moved_ids.end());
    BALLFIT_REQUIRE(std::adjacent_find(moved_ids.begin(), moved_ids.end()) ==
                        moved_ids.end(),
                    "duplicate node id in NetworkDelta list");
    for (const net::NodeMove& m : delta.moved) {
      BALLFIT_REQUIRE(
          lat.cell_of(m.new_position) == own_cell_[m.node],
          "NetworkDelta: node " + std::to_string(m.node) +
              " moved out of its owning lattice cell — shard membership "
              "is positional; apply the moves with Network::apply_moves "
              "and rebuild the ShardedDetector");
      const double c[3] = {m.new_position.x, m.new_position.y,
                           m.new_position.z};
      std::size_t lo[3], hi[3];
      for (int d = 0; d < 3; ++d) {
        lo[d] = lat.axis_cell(c[d] - halo_dist_, d);
        hi[d] = lat.axis_cell(c[d] + halo_dist_, d);
      }
      const std::span<const std::uint32_t> seen = shards_of(m.node);
      for (std::size_t z = lo[2]; z <= hi[2]; ++z)
        for (std::size_t y = lo[1]; y <= hi[1]; ++y)
          for (std::size_t x = lo[0]; x <= hi[0]; ++x) {
            const std::uint32_t s =
                shard_of_cell_[(z * lat.k[1] + y) * lat.k[0] + x];
            if (s == static_cast<std::uint32_t>(-1)) continue;
            BALLFIT_REQUIRE(
                std::binary_search(seen.begin(), seen.end(), s),
                "NetworkDelta: node " + std::to_string(m.node) +
                    " moved into the halo rim of a shard that does not "
                    "see it — shard membership is positional; apply the "
                    "moves with Network::apply_moves and rebuild the "
                    "ShardedDetector");
          }
    }
  }

  // Route to every shard whose cell-or-rim holds the node: the owner must
  // recompute the node's flag, and halo shards must re-localize the owned
  // neighborhoods that could hear it. Moves route like crashes — with the
  // pre-move membership, which the validation above proved covers the
  // post-move rims too.
  std::vector<NetworkDelta> local(shards_.size());
  const auto route = [&](const std::vector<NodeId>& ids, bool crashed) {
    for (NodeId g : ids) {
      for (std::uint32_t s : shards_of(g)) {
        const NodeId l = shards_[s]->local_of(g);
        (crashed ? local[s].crashed : local[s].revived).push_back(l);
      }
    }
  };
  route(delta.crashed, true);
  route(delta.revived, false);
  for (const net::NodeMove& m : delta.moved) {
    for (std::uint32_t s : shards_of(m.node)) {
      local[s].moved.push_back(
          net::NodeMove{shards_[s]->local_of(m.node), m.new_position});
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (local[s].empty()) continue;
    shards_[s]->session->apply(local[s]);
    if (!local[s].moved.empty()) ++shards_[s]->topology_version;
  }
  if (!delta.moved.empty()) mutable_network_->apply_moves(delta.moved);
  for (NodeId v : delta.crashed) alive_[v] = 0;
  for (NodeId v : delta.revived) alive_[v] = 1;
  num_alive_ = num_alive_ - delta.crashed.size() + delta.revived.size();
}

}  // namespace ballfit::core
