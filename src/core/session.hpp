#pragma once

/// \file session.hpp
/// Staged detection engine: the pipeline of pipeline.hpp (measurements →
/// local MDS frames → UBF → IFF → grouping) decomposed into named stages
/// with typed, fingerprint-keyed artifacts that persist across runs.
///
/// Stage graph (artifact → consumers):
///
///   Measure   (NoisyDistanceModel + Localizer)   ← measurement_error, noise_seed
///     └─ Localize (per-node LocalFrame vector)   ← scope, alive mask
///          └─ UBF (per-node candidate flags)     ← every UbfConfig knob
///               └─ Escalate (opt-in, refined flags + confidence)
///               │                                ← escalate.margin/relax
///               └─ IFF (boundary flags)          ← iff.theta/ttl/use_message_passing
///                    └─ Group (BoundaryGroups)   ← iff.use_message_passing
///                         └─ Surface (opt-in, mesh::SurfaceStage)
///
/// The Escalate stage (PipelineConfig::escalate) is the effort control
/// plane: it plans a per-node EffortClass from the first pass's confidence
/// and stress signals (core::build_effort_plan), re-embeds the marginal
/// nodes' own frames at kFull effort (the dominant input to their ball
/// tests), re-runs the ball test on their 1-hop reach (every test that
/// reads a rebuilt frame) with a doubled vote budget, and folds back only
/// verdicts
/// that are at least as decisive as the first pass (stress-gated nodes
/// always adopt — the rebuild is exactly their rescue path). When it runs,
/// IFF consumes its refined flags instead of the raw UBF artifact; when
/// disabled every downstream bit is identical to a build without the
/// stage. True-coordinates runs skip it (there is no effort to retarget).
///
/// Each stage caches its last artifact keyed by a fingerprint of exactly
/// the config fields and upstream artifacts it reads. A config sweep that
/// only changes UBF/IFF knobs therefore reuses the measurement model and
/// the local frames — the multi-second part of a run — and a change to
/// `measurement_error` invalidates only Measure → Localize and downstream.
/// Every artifact is a pure function of (network, alive set, config), so a
/// cached or partially recomputed run is bit-identical to a fresh one;
/// `detect_boundaries` is now literally one-shot `DetectionSession::run`.
///
/// Incremental re-detection: `apply(NetworkDelta)` marks nodes crashed,
/// revived, or moved. Frames are re-embedded only inside the two-hop reach
/// of the changed nodes (a frame's membership is a subset of its owner's
/// two-hop neighborhood), the ball test re-runs only there plus one extra
/// witness hop (on true coordinates, where a flag reads the alive
/// positions within two hops, only within those two hops), and the cheap
/// whole-network floods (IFF, grouping) re-run whenever their inputs
/// changed. This mirrors the paper's localized semantics: a crash is
/// invisible beyond the neighborhoods that could hear the node. A move
/// dirties both the node's old and new neighborhoods; the adjacency itself
/// is rebuilt locally by `net::Network::apply_moves`, which requires the
/// session to have been constructed with a mutable network.
///
/// Fault injection (`PipelineConfig::faults`) flows through the same
/// cached stage graph. The fault model's crash state is folded into the
/// session alive-mask (via `delta_from_fault_state`), so fault crashes and
/// user deltas compose; the loss/duplication channel is applied by a fresh
/// per-stage fault model whose seed is a pure function of the config, so
/// the IFF/grouping artifacts stay cacheable — keyed on a deterministic
/// fault-stream fingerprint (seed + probabilities), not on RNG call order.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "localization/local_frame.hpp"

namespace ballfit::core {

/// A topology change to apply between runs: nodes that crashed (fail-stop,
/// silent), nodes that came back, and nodes that moved. Ids keep their
/// original network numbering — nodes do not renumber when a peer dies.
///
/// `DetectionSession::apply` validates the delta strictly: ids must be in
/// range, each list must be duplicate-free, crashed nodes must currently be
/// alive, and revived nodes must currently be dead. Moves may target any
/// valid node (alive or dead — a dead node's radio is silent but its
/// position still changes) and require the session to hold a mutable
/// network.
struct NetworkDelta {
  std::vector<net::NodeId> crashed;
  std::vector<net::NodeId> revived;
  std::vector<net::NodeMove> moved;
  bool empty() const {
    return crashed.empty() && revived.empty() && moved.empty();
  }
};

/// Per-stage cache accounting (counts since session construction).
struct StageCounters {
  std::uint64_t full_runs = 0;     ///< artifact recomputed from scratch
  std::uint64_t partial_runs = 0;  ///< recomputed on the dirty set only
  std::uint64_t cache_hits = 0;    ///< artifact reused as-is
};

struct SessionStats {
  StageCounters measure;   ///< noise model + localizer construction
  StageCounters localize;  ///< per-node frame embedding
  StageCounters ubf;       ///< ball test + witness cross-verification
  StageCounters escalate;  ///< opt-in kFull re-runs on marginal nodes
  StageCounters iff;       ///< isolated fragment filtering
  StageCounters group;     ///< boundary grouping
  /// Frames re-embedded by the last partial Localize run (count).
  std::size_t last_frames_rebuilt = 0;
  /// Alive nodes the last run's UBF stage tested — ball test or
  /// degenerate vote: the re-test set of a partial run, every alive work
  /// node of a full run, 0 after a cache hit (count).
  std::size_t last_nodes_retested = 0;
};

/// A detection session bound to one `net::Network`.
///
/// Not thread-safe: one session serves one caller at a time (the per-node
/// stages still parallelize internally per `PipelineConfig::threads`).
/// The network must outlive the session.
///
/// Fault injection (`PipelineConfig::faults`) runs through the same cached
/// stage graph as reliable runs. A run with an active fault config
/// installs a session fault model (rebuilt whenever the config changes —
/// identified by a fingerprint over seed + probabilities + sorted crash
/// schedule) and folds its crash state into the alive mask before the
/// stages execute; fault casualties are attributed, so they compose with
/// user-applied deltas: a user revive of a fault casualty sticks until the
/// fault clock (`advance_faults`) or a re-synced model kills it again, and
/// a reliable run revives every remaining fault casualty — results stay
/// pure functions of (network, deltas, config).
class DetectionSession {
 public:
  /// Observe-only binding: `apply` deltas may crash/revive but not move
  /// nodes (moves must rebuild adjacency, which needs a mutable network).
  explicit DetectionSession(const net::Network& network);
  /// Mutable binding: `apply` deltas may also move nodes; the session
  /// forwards them to `net::Network::apply_moves`. The caller must not
  /// mutate the network behind the session's back.
  explicit DetectionSession(net::Network& network);
  /// Mutable binding with a work set: `work[i] != 0` marks the nodes whose
  /// verdicts the caller reads (sized num_nodes; empty = every node).
  /// `ShardedDetector` passes each shard's owned nodes, so the halo is
  /// input to the owned verdicts, never work of its own. UBF then tests
  /// only work nodes (cold, partial and degenerate re-tests alike), the
  /// frame path embeds only the frames those tests read — the work nodes
  /// and their one-hop witnesses — and `frame_fallbacks` counts work nodes
  /// only. Verdicts of work nodes are bit-identical to an unrestricted
  /// session's; everything else in `ubf_candidates` and `ubf_confidence`
  /// reads 0. Escalated runs keep the full work set (the effort plan reads
  /// confidence around the work nodes), and so do kFast frame builds
  /// (warm frames depend on the whole schedule).
  DetectionSession(net::Network& network, std::vector<char> work);

  const net::Network& network() const { return *network_; }

  /// Runs the pipeline, reusing every cached artifact the fingerprints
  /// allow. Bit-identical to `detect_boundaries(network, config)` for
  /// reliable (fault-free) configs, including the obs span tree and
  /// pipeline.* counters of a fresh run for stages that execute.
  PipelineResult run(const PipelineConfig& config = {});

  /// The candidate prefix of `run`: fault sync, then Measure → Localize →
  /// UBF → Escalate, through the same caches. Returns what `run` returns
  /// up to the filter stages — `ubf_candidates` and `ubf_confidence` (the
  /// escalated ones when that stage ran), `frame_fallbacks`,
  /// `localize_stats`, `effort`, `crashed_nodes` and the fault crash count
  /// — with `boundary` and `groups` empty. Opens no span and publishes no
  /// pipeline.* counter of its own. `ShardedDetector` runs this on each
  /// shard and recomputes IFF and grouping seam-exactly itself.
  PipelineResult run_candidates(const PipelineConfig& config = {});

  /// Applies a crash/revive/move delta and dirties the affected
  /// neighborhoods. The next `run` re-embeds frames only within two hops
  /// of the changed nodes and re-tests only those plus their witnesses
  /// (three hops; two on true coordinates, where no frame sits between a
  /// flag and the positions it reads); moves dirty both the old and the
  /// new neighborhood.
  /// Throws `InvalidArgument` (before any state change) on out-of-range
  /// ids, duplicates within a list, crashing a dead node, reviving an
  /// alive node, or moves on a const-bound session.
  void apply(const NetworkDelta& delta);

  /// Advances the installed fault model's crash clock by `rounds` rounds
  /// (scheduled crashes fire, per-round crash probabilities roll) and
  /// folds the new casualties into the alive mask. Returns the delta that
  /// was folded in. Requires a fault model (i.e. a preceding `run` with an
  /// active fault config); note a reliable run uninstalls the model.
  NetworkDelta advance_faults(std::size_t rounds = 1);

  /// True when a fault model is currently installed (last run was faulted).
  bool has_fault_model() const { return fault_model_.has_value(); }

  bool is_alive(net::NodeId v) const { return alive_[v] != 0; }
  std::size_t num_alive() const { return num_alive_; }

  const SessionStats& stats() const { return stats_; }

  /// Fingerprint of the last run's final boundary + groups; equal values
  /// guarantee identical (boundary, groups). 0 before the first run.
  /// `mesh::SurfaceStage` keys its artifact on this.
  std::uint64_t result_fingerprint() const { return result_fp_; }

 private:
  /// Measure artifact (frame path only).
  void run_measure_stage(const PipelineConfig& config);
  /// Localize artifact (frame path only): full or dirty-set rebuild, of
  /// every frame or (`restricted`) only of `frame_work_`.
  void run_localize_stage(const UbfConfig& ubf_config, unsigned threads,
                          bool restricted);
  /// UBF on either coordinate source (running Measure and Localize first
  /// on the frame path): cache hit, partial re-test of the dirty set, or
  /// full run — over the work set when `restricted`, else every node.
  void run_ubf_stages(const PipelineConfig& config,
                      const UbfConfig& ubf_config, unsigned threads,
                      bool restricted, PipelineResult& result);
  /// Brings `frame_work_` (work set + one-hop witnesses) up to the current
  /// adjacency; witnesses that join it get their frames dirtied.
  void refresh_frame_work();
  /// The opt-in Escalate stage (see the stage-graph comment). When it
  /// runs, it overwrites `result`'s candidates and confidence with the
  /// escalated ones, which the filter stages then consume. Invalidates the
  /// artifact when disabled or on the true-coordinates path.
  void run_escalate_stage(const PipelineConfig& config,
                          const UbfConfig& ubf_config, unsigned threads,
                          PipelineResult& result);
  /// `candidates`/`confidence` are the effective per-node inputs — the UBF
  /// artifact, or the Escalate artifact when that stage ran. The IFF key
  /// fingerprints the flags themselves, so escalated content re-keys the
  /// flood artifacts automatically.
  void run_filter_stages(const PipelineConfig& config, bool faulted,
                         const std::vector<bool>& candidates,
                         const std::vector<float>& confidence,
                         PipelineResult& result);
  /// Installs (or reuses) the session fault model for `config`; rebuilds on
  /// a config-fingerprint change, which resets the crash clock.
  void ensure_fault_model(const sim::FaultConfig& config);
  /// Uninstalls the fault model and revives its remaining casualties.
  void release_fault_model();
  /// Folds the model's current crash state into the alive mask (fault
  /// casualties only — user-crashed nodes are never revived by the model).
  NetworkDelta sync_fault_state();
  /// Updates the alive mask + dirty sets for an already-validated diff.
  void apply_alive_diff(const std::vector<net::NodeId>& crashed,
                        const std::vector<net::NodeId>& revived);

  const net::Network* network_;
  /// Non-null iff the session was constructed with a mutable network;
  /// required by move deltas.
  net::Network* mutable_network_ = nullptr;
  std::vector<char> alive_;
  std::size_t num_alive_;
  /// Bumped by every effective `apply`; artifacts remember the epoch they
  /// were computed in.
  std::uint64_t alive_epoch_ = 0;
  /// Bumped by every move-containing `apply`: adjacency identity for the
  /// flood-stage keys (flags alone cannot see an edge change).
  std::uint64_t topology_version_ = 0;
  bool masked_ = false;  ///< any node currently dead

  // --- Work set (see the work-set constructor); empty = every node.
  std::vector<char> work_;
  /// Frames a restricted run embeds: the work set plus its one-hop
  /// witnesses, on the adjacency of `frame_work_topology_`.
  std::vector<char> frame_work_;
  std::uint64_t frame_work_topology_ = 0;
  bool frame_work_valid_ = false;

  // --- Session fault model (installed by faulted runs).
  std::optional<sim::FaultModel> fault_model_;
  /// Identity of the installed model: fingerprint over the full config
  /// (seed, probabilities, sorted+deduplicated crash schedule, node count).
  std::uint64_t fault_cfg_fp_ = 0;
  /// Fault-stream fingerprint of the loss/duplication channel (seed +
  /// channel probabilities); mixed into the IFF/Group stage keys.
  std::uint64_t fault_channel_fp_ = 0;
  /// Attribution: nodes dead because the fault model killed them (vs a
  /// user delta). Only these are revived when the model state recedes.
  std::vector<char> fault_dead_;

  // --- Measure artifact. `localizer_` holds a pointer to `model_`; both
  // live in optional slots so re-emplacement reuses the session object.
  std::optional<net::NoisyDistanceModel> model_;
  std::optional<localization::Localizer> localizer_;
  std::uint64_t measure_fp_ = 0;
  bool measure_valid_ = false;
  /// Set by move deltas: the localizer's per-edge measurement cache mirrors
  /// the CSR layout, so it must be re-materialized against the mutated
  /// adjacency. The refresh keeps `measure_version_` — the noise law is
  /// unchanged and unmoved pairs draw bit-identical measurements, so frames
  /// outside the dirty set stay valid.
  bool measure_stale_ = false;
  /// Distinguishes successive measure artifacts in downstream keys.
  std::uint64_t measure_version_ = 0;

  // --- Localize artifact.
  std::vector<localization::LocalFrame> frames_;
  /// Effort accounting of the build that produced `frames_` (cache hits
  /// republish it; true-coordinates runs leave it zeroed).
  localization::FrameBuildStats loc_stats_;
  std::uint64_t frames_key_ = 0;    ///< (measure_version, scope)
  std::uint64_t frames_epoch_ = 0;  ///< alive_epoch_ the frames reflect
  std::uint64_t frames_version_ = 0;
  bool frames_valid_ = false;
  /// Nodes whose frame must be re-embedded before next use (accumulated
  /// across `apply` calls, cleared by every Localize run).
  std::vector<char> frames_dirty_;

  // --- UBF artifact.
  std::vector<char> ubf_flags_;
  std::vector<bool> ubf_candidates_;  ///< published copy of ubf_flags_
  /// Obs-gated companion to ubf_flags_ (see core::vote_confidence): filled
  /// when `obs::enabled()` at compute time, cleared when the flags are
  /// recomputed without it. Deliberately NOT part of any fingerprint —
  /// it never influences flags, so cache identity ignores it.
  std::vector<float> ubf_confidence_;
  std::size_t frame_fallbacks_ = 0;
  /// Exact-hit key: core key + degenerate vote + the version of the
  /// per-node inputs (frames_version_, or alive_epoch_ on true coordinates).
  std::uint64_t ubf_full_fp_ = 0;
  /// Partial-run key: everything the per-node decision reads except the
  /// degenerate vote (only degenerate nodes read it; they join every
  /// partial run) and the per-node inputs (covered by dirty tracking).
  std::uint64_t ubf_core_fp_ = 0;
  bool ubf_valid_ = false;
  /// Nodes whose flag must be recomputed, marked 1 + hop distance to the
  /// nearest change out to 3 hops (`net::mark_k_hop`): the frame path
  /// re-tests all of them (dirty frames + one witness hop), true
  /// coordinates only marks <= 3 (the 2-hop neighborhood a flag reads).
  std::vector<char> ubf_dirty_;

  // --- Escalate artifact (opt-in; empty/invalid unless the last run had
  // `escalate.enabled` on the frame path). Keyed on the UBF exact-hit key
  // plus the escalation knobs — everything the stage reads flows through
  // that key (frames via frames_version_, confidence via the UBF config,
  // alive set via the frame rebuild), so equal keys guarantee an identical
  // artifact.
  std::vector<char> esc_flags_;
  std::vector<bool> esc_candidates_;  ///< published copy of esc_flags_
  std::vector<float> esc_confidence_;
  EffortStats esc_stats_;
  std::uint64_t esc_fp_ = 0;
  bool esc_valid_ = false;

  // --- IFF artifact.
  std::vector<bool> boundary_;
  /// Obs-gated per-node flood counts (iff_filter's counts_out); same
  /// lifecycle as ubf_confidence_ — telemetry, never a cache key.
  std::vector<std::uint32_t> iff_counts_;
  sim::RunStats iff_cost_;
  /// Channel effects of the stage's fault model (zeros on reliable runs);
  /// cached with the artifact so a cache hit reports what a fresh run
  /// would.
  sim::FaultStats iff_fault_stats_;
  std::uint64_t iff_fp_ = 0;
  bool iff_valid_ = false;

  // --- Group artifact.
  BoundaryGroups groups_;
  sim::RunStats group_cost_;
  sim::FaultStats group_fault_stats_;
  std::uint64_t group_fp_ = 0;
  bool group_valid_ = false;

  std::uint64_t result_fp_ = 0;
  SessionStats stats_;
};

/// Diffs a fault model's current crash state against the session's alive
/// set: nodes down but still alive in the session become `crashed`, nodes
/// back up become `revived`. Bridges the sim fault schedule into the
/// incremental re-detection path; `DetectionSession` uses it internally to
/// fold fault crashes into the alive mask on every faulted run.
///
/// Output contract: both lists are sorted ascending, duplicate-free, and
/// never intersect (one ascending scan per node decides at most one
/// membership). The function is idempotent — applying the returned delta
/// and diffing again yields an empty delta, because the diff is exactly
/// the symmetric difference of the two states.
NetworkDelta delta_from_fault_state(const DetectionSession& session,
                                    const sim::FaultModel& faults);

}  // namespace ballfit::core
