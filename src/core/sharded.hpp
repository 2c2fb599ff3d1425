#pragma once

/// \file sharded.hpp
/// Spatially sharded boundary detection for very large networks.
///
/// The paper's algorithm is localized by construction: a node's local frame
/// reads its 2-hop neighborhood, its UBF flag reads the frames of itself and
/// its one-hop witnesses (3 hops total), and the IFF verdict reads candidate
/// flags within `IffConfig::ttl` hops. `ShardedDetector` exploits that
/// locality to split one monolithic `DetectionSession` into independent
/// per-shard sessions:
///
///   AABB grid cell ──► cell + ghost rim (halo) ──► per-shard session
///        │                                              │
///        └── owned nodes                                ▼
///                         halo exchange (candidates, then boundary flags)
///                                                       │
///                                                       ▼
///                                            seam stitch (group union-find)
///
/// Each shard owns the nodes inside one grid cell of the network AABB and
/// additionally sees a *halo*: every node within `halo_hops × radio_range`
/// Euclidean distance of the cell box — a superset of the `halo_hops`-hop
/// rim, since a hop spans at most the radio range. Detection runs in three
/// phases:
///
///   1. every shard runs its `DetectionSession`'s candidate prefix
///      (`run_candidates`: Measure → Localize → UBF → Escalate) on its
///      subnetwork (thread pool, one worker per shard); with
///      `halo_hops >= 3` the UBF candidate flag of every *owned* node is
///      exact — its witnesses' frames see untruncated 2-hop neighborhoods.
///      The halo is input, not work: the owned nodes are the session's
///      work set, so UBF tests owned nodes only (cold, partial and
///      degenerate re-tests alike) and the frame path embeds only the
///      frames those tests read, the owned nodes' and their one-hop
///      witnesses' (complete by the same 3 = 1 + 2 invariant). Each alive
///      node is ball-tested once per cold run, in its owner shard (obs
///      counter `shard.ubf_tested`).
///   2. owned candidate flags are exchanged into a global vector and IFF
///      runs per shard on the exact flags; with `halo_hops >= ttl` every
///      candidate-only flood path that can reach an owned node lies inside
///      its shard, so owned boundary flags are exact.
///   3. boundary flags are exchanged and each shard groups its local
///      boundary subgraph; groups are stitched across seams by a min-id
///      union-find over global ids. Every boundary edge (u, v) appears in
///      u's owner shard (v is one hop away, well inside the halo), so the
///      stitched components — and the resulting `BoundaryGroups`, sorted by
///      min-id leader with sorted members — equal the unsharded output
///      exactly.
///
/// Repeat runs do only local work. Phase 1 reuses each session's caches
/// (a delta re-tests only the dirty ball tests). Phases 2 and 3 keep a
/// single-entry cache per shard, keyed like the session's IFF and Group
/// stages — the shard's local input flags, the flood knobs, whether obs
/// is on, and the shard's topology version — so a shard whose input flags
/// did not change reuses its verdicts, counts, groups and cost stats
/// (obs counters `shard.iff_reused`, `shard.group_reused`).
///
/// Equality contract: `run` produces `ubf_candidates`, `boundary`, `groups`
/// (and, with obs enabled, per-node confidence, IFF counts and group
/// quality) bit-identical to `DetectionSession::run` on the whole network
/// with the same `PipelineConfig` — on both the true-coordinates and the
/// noisy-localization paths. The noisy path leans on two determinism
/// contracts: measurement noise and SMACOF restart perturbations are keyed
/// on `net::Network::external_id`, so a shard reproduces the parent's draws
/// (measurement.hpp, local_frame.hpp), and `induced_subnetwork` preserves
/// relative id order, so frame member lists are order-isomorphic and the
/// per-frame math is bit-identical.
///
/// `frame_fallbacks` is summed over the shards' owned nodes and equals the
/// unsharded count. Flood cost telemetry (`iff_cost`, `grouping_cost`) and
/// `localize_stats` are summed over shards, so halo nodes and seam
/// witnesses count once per shard that floods or embeds them — an upper
/// bound on the unsharded cost, not an equality.
///
/// Escalation (`PipelineConfig::escalate`) flows through each shard's
/// session with the full work set — its effort plan reads halo confidence
/// — and `run` requires `halo_hops >= 6` for it: an owned
/// node's escalated flag reads the plan of seeds up to 1 hop away (its
/// retest membership and the kFull status of the frames its test reads),
/// and each seed's plan reads confidence whose inputs reach 3 hops
/// further — a 4-hop worst case, with two hops of margin so the contract
/// survives a wider dirty-set choice. `PipelineResult::effort` is summed
/// over shards — halo nodes
/// are planned/retested once per shard that sees them, so the merged
/// stats overcount like the other cost telemetry.
///
/// Deltas: crash/revive/move deltas are routed to every shard whose
/// cell-or-rim contains the node (for moves, the pre- AND post-move
/// position). Moves require a detector constructed over a mutable
/// network, and each move must stay inside its owning cell and inside the
/// rims that already see the node — a move that would change shard
/// membership throws `InvalidArgument` (rebuild the detector after
/// `Network::apply_moves` instead; membership is positional).
///
/// Not supported (throws `InvalidArgument`): fault injection. The
/// loss/duplication channel RNG is call-order dependent, so per-shard
/// replay cannot reproduce the unsharded stream; the ROADMAP caveat
/// stands — re-keying the channel draw per (stage, node) would make
/// sharded faults reproducible. Until then, run faulted configs through
/// an unsharded `DetectionSession`.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/session.hpp"

namespace ballfit::core {

struct ShardedConfig {
  /// Grid cells along each AABB axis (counts; 0 = derive all three from
  /// `target_nodes_per_shard`, proportionally to the AABB extents). Axes
  /// whose extent is below the radio range always collapse to one cell.
  std::size_t cells_x = 0;
  std::size_t cells_y = 0;
  std::size_t cells_z = 0;
  /// Auto-partitioning target for owned nodes per shard (count, used when
  /// cells_* are 0). Default 50k keeps per-shard frame memory modest while
  /// leaving enough work per shard to amortize stitching.
  std::size_t target_nodes_per_shard = 50'000;
  /// Ghost-rim width in hops (>= 3). 3 covers the 2-hop frame radius plus
  /// one witness hop; `run` additionally requires halo_hops >= IffConfig::
  /// ttl (default 3), and >= 6 when `PipelineConfig::escalate` is enabled
  /// (escalated flags read 1 hop of plan reach plus 3 hops of confidence
  /// inputs, with two hops of margin). Realized geometrically as
  /// halo_hops × radio_range around the
  /// cell box. Wider halos buy nothing but overlap.
  unsigned halo_hops = 3;
  /// Worker threads for the shard pool (count; default 0 = hardware
  /// concurrency). Shard sessions run single-threaded inside a worker;
  /// results are identical for every thread count.
  unsigned threads = 0;
};

/// Per-shard accounting, stable across runs.
struct ShardInfo {
  std::size_t owned_nodes = 0;  ///< nodes whose cell this shard owns
  std::size_t halo_nodes = 0;   ///< ghost-rim nodes (seen, never reported)
  double last_detect_ms = 0.0;  ///< phase-1 session wall clock, last run
};

/// Sharded drop-in for `DetectionSession` on networks too large for one
/// session. Not thread-safe (one caller at a time); the network must
/// outlive the detector and must not be mutated behind its back.
class ShardedDetector {
 public:
  /// Observe-only binding: `apply` deltas may crash/revive but not move
  /// nodes.
  explicit ShardedDetector(const net::Network& network,
                           ShardedConfig config = {});
  /// Mutable binding: `apply` deltas may also move nodes (within their
  /// owning cell and existing rims — see the move contract above). The
  /// caller must not mutate the network behind the detector's back.
  explicit ShardedDetector(net::Network& network, ShardedConfig config = {});
  ~ShardedDetector();
  ShardedDetector(ShardedDetector&&) noexcept;
  ShardedDetector& operator=(ShardedDetector&&) noexcept;

  const net::Network& network() const { return *network_; }
  const ShardedConfig& config() const { return config_; }

  /// Runs sharded detection; see the equality contract above. Repeat runs
  /// reuse each shard session's cached stages exactly like an unsharded
  /// session would, and each shard's last IFF and grouping flood while its
  /// input flags are unchanged. Throws `InvalidArgument` on an installed
  /// fault config or when `config.iff.ttl > halo_hops`.
  PipelineResult run(const PipelineConfig& config = {});

  /// Applies a crash/revive/move delta, routing each node to every shard
  /// whose cell-or-rim contains it (so the owning shard *and* any shard
  /// that sees the node as halo re-localize around it). Validates like
  /// `DetectionSession::apply`. Moves additionally require the mutable
  /// binding, must keep the node in its owning cell, and must not enter
  /// the rim of a shard that does not already see the node — otherwise
  /// `InvalidArgument` (before any state change): shard membership is
  /// positional, so such a move needs a detector rebuild.
  void apply(const NetworkDelta& delta);

  std::size_t num_shards() const { return shards_.size(); }
  const ShardInfo& shard_info(std::size_t s) const;
  /// The shard's internal session (primarily for cache-counter tests).
  const DetectionSession& shard_session(std::size_t s) const;

  /// Shards whose cell-or-rim contains node `g`, ascending (>= 1 entries).
  std::span<const std::uint32_t> shards_of(net::NodeId g) const;

  bool is_alive(net::NodeId v) const { return alive_[v] != 0; }
  std::size_t num_alive() const { return num_alive_; }

  /// Cross-shard group unifications performed by the last `run` (count; 0
  /// when every boundary group was discovered whole by a single shard).
  std::uint64_t last_stitch_merges() const { return stitch_merges_; }

 private:
  struct Shard;

  const net::Network* network_;
  /// Non-null iff constructed with a mutable network; required by moves.
  net::Network* mutable_network_ = nullptr;
  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Lattice geometry persisted for move-delta validation/routing (the
  // construction-time grid; membership never changes after construction).
  geom::Vec3 lattice_origin_{};
  double lattice_step_[3] = {0.0, 0.0, 0.0};
  std::size_t lattice_k_[3] = {1, 1, 1};
  double halo_dist_ = 0.0;
  std::vector<std::uint32_t> own_cell_;      ///< node -> owning cell
  std::vector<std::uint32_t> shard_of_cell_; ///< cell -> shard (-1 = empty)
  // Node -> shards membership, CSR over global ids.
  std::vector<std::size_t> route_offsets_;
  std::vector<std::uint32_t> route_shards_;
  std::vector<char> alive_;
  std::size_t num_alive_ = 0;
  std::uint64_t stitch_merges_ = 0;
};

}  // namespace ballfit::core
