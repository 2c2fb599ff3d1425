#pragma once

/// \file local_frame.hpp
/// Local coordinate establishment (paper Sec. II-A3 step I).
///
/// Each node i collects noisy distance measurements between all pairs of
/// nodes in N(i) = {i} ∪ neighbors(i) that are within measuring range of
/// each other, completes the missing pairs by shortest paths inside the
/// neighborhood, and embeds the result into R³ with classical MDS — our
/// stand-in for the Shang–Ruml MDS localization the paper adopts [31].
/// The output frame is arbitrary up to rigid motion + reflection, which is
/// exactly the invariance class of the Unit Ball Fitting test.

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec3.hpp"
#include "linalg/matrix.hpp"
#include "net/measurement.hpp"
#include "net/network.hpp"

namespace ballfit::localization {

struct LocalFrame {
  /// Nodes in the frame; members[0] is always the owning node itself.
  /// members[1 .. one_hop_count-1] are the one-hop neighbors; members from
  /// one_hop_count on (present only in stitched two-hop frames) are two-hop
  /// nodes, usable as emptiness witnesses but not as ball witnesses.
  std::vector<net::NodeId> members;
  /// Embedded coordinates, indexed like `members`.
  std::vector<geom::Vec3> coords;
  /// Count of members that are the node itself or one-hop neighbors.
  std::size_t one_hop_count = 0;
  /// False when the neighborhood was too small/degenerate to embed.
  bool ok = false;
  /// RMS residual per measured pair after refinement,
  /// √(stress / #measured pairs) — a self-calibrated estimate of the local
  /// coordinate uncertainty (≈ the ranging noise std when refinement
  /// succeeds). UBF widens its emptiness slack proportionally.
  double stress_rms = 0.0;
  /// Ratio |λ₄|/λ₃ of the centered Gram matrix — a cheap measure of how
  /// non-Euclidean the (noisy) distances were. ~0 for clean input.
  double embed_residual = 0.0;
};

/// Numerical-equivalence contract of the frame build (see
/// docs/ARCHITECTURE.md, "Localization").
enum class EquivalenceTier {
  /// Every new fast path is forced off; frames are bit-identical to the
  /// pre-warm-start kernel and each frame is a pure function of its
  /// two-hop neighborhood.
  kBitwise,
  /// Adaptive effort capping and blocked sweeps run (as far as their
  /// individual flags allow), but every frame stays a pure per-node
  /// function of (network, measurement model, scope, alive): the blocked
  /// batch build, the per-node build, a partial rebuild, and any thread
  /// count produce bit-identical frames *at this tier* — so detection
  /// flags and groups are identical across all of them. Coordinates may
  /// differ from kBitwise (fewer eigen iterations, early sweep exits);
  /// the per-frame purity contract is enforced by
  /// tests/localization_equivalence_test.cpp and the drift against
  /// kBitwise is watched by the bench_compare boundary tripwire. This is
  /// the default tier.
  kBoundaryIdentical,
  /// Additionally warm-starts each frame's SMACOF from already-solved
  /// neighbor frames (deterministic BFS wave schedule + rigid Procrustes
  /// import) instead of a spectral init, and keeps the result even when
  /// its stress misses the acceptance gate. Frames become functions of
  /// the schedule, not of their neighborhood alone; accuracy is tracked
  /// via the stress/confidence histograms rather than guaranteed.
  kFast,
};

/// Per-node effort override — the localization half of the effort control
/// plane (`core::EffortPlan`). Where the `EquivalenceTier` sets one effort
/// level for a whole build, an `EffortClass` retunes a *single node's*
/// frame build from the plan the session derived out of first-pass
/// confidence and stress signals. `kDefault` reproduces the configured
/// behavior bit for bit, so a plan of all-kDefault is indistinguishable
/// from no plan at all.
enum class EffortClass : std::uint8_t {
  /// Confident node: half the sweep budget, a single SMACOF attempt (no
  /// perturbed restarts), and a 10× looser eigen-init tolerance. The
  /// decision was already clear — the frame only needs to stay good
  /// enough for its neighbors' witness checks.
  kCheap,
  /// Exactly the configured behavior (tier knobs and all).
  kDefault,
  /// Marginal or stress-gated node: the full configured sweep budget with
  /// the adaptive exits (stress floor, plateau cap) disarmed, and the
  /// kBitwise-grade eigen init (60 iterations, 1e-6 tolerance). This is
  /// the escalation effort level — spend everything the config allows.
  kFull,
};

struct LocalizerConfig {
  /// Pairs of neighbors farther apart than the radio range cannot measure
  /// each other; their matrix entry is completed by the shortest measured
  /// path within the neighborhood (Floyd–Warshall over ≤ deg+1 nodes).
  bool complete_missing_pairs = true;
  /// Fallback entry (× radio range) when even path completion fails; only
  /// reachable in adversarial topologies.
  double missing_pair_fallback = 2.0;
  /// SMACOF refinement sweeps applied after classical MDS, honoring only
  /// the actually-measured pairs (0 disables — pure classical MDS).
  int smacof_sweeps = 60;
  /// Sweeps for the (larger) two-hop MDS-MAP patches; coordinate-descent
  /// stress majorization needs more rounds to propagate across a patch of
  /// ~150 nodes than across a one-hop clique.
  int mdsmap_sweeps = 250;
  /// SMACOF restarts from perturbed initializations. Stress majorization
  /// inherits fold-over local minima from the biased classical-MDS init
  /// (path-completed entries overestimate); restarts keep the best-stress
  /// embedding and stop early once the stress is consistent with the
  /// ranging noise level.
  int smacof_restarts = 2;
  /// Seed for the (deterministic, per-node) restart perturbations. The
  /// per-node stream is keyed on `Network::external_id(node)`, so an
  /// induced subnetwork rebuilds a shared node's frame bit-identically to
  /// its parent network.
  std::uint64_t restart_seed = 0x5eedULL;
  /// Use the 3-eigenpair `eigen_top_k` path for the classical-MDS init of
  /// one-hop frames with more than `topk_mds_threshold` members, instead of
  /// a full Jacobi decomposition (O(k·m²·iters) vs O(m³·sweeps)). Below the
  /// threshold dense Jacobi is both faster and exact, so it is kept.
  /// Coordinates change within numerical noise (the SMACOF refinement
  /// converges to the same basin); detection stats are preserved but not
  /// bit-identical — disable for bitwise-reproducibility studies.
  bool topk_mds = true;
  std::size_t topk_mds_threshold = 24;
  /// Sweep SMACOF over a precomputed measured-edge adjacency (CSR) instead
  /// of scanning the dense m×m weight matrix per point per sweep. Same
  /// arithmetic in the same order — bit-identical output; the flag exists
  /// only so the equivalence tests can compare against the dense reference.
  bool sparse_smacof = true;
  /// Materialize every radio edge's measured distance once at Localizer
  /// construction (`net::EdgeMeasurementCache`) instead of re-deriving it
  /// inside every frame build. Values are bit-identical by the measurement
  /// model's determinism contract.
  bool use_edge_cache = true;

  /// Equivalence tier of the whole frame build. kBitwise overrides the
  /// three optimization flags below to off; the flags exist so tests and
  /// benchmarks can toggle each optimization independently within a tier.
  EquivalenceTier tier = EquivalenceTier::kBoundaryIdentical;
  /// Warm-start (kFast only): solve frames in a deterministic BFS wave
  /// schedule and initialize each node's SMACOF from an already-solved
  /// neighbor frame (rigid Procrustes import of the shared two-hop
  /// members) instead of a cold classical-MDS/eigen init. A warm frame
  /// depends on the schedule, not on its neighborhood alone, which is
  /// incompatible with the kBoundaryIdentical purity contract — measured
  /// warm inits also land in systematically worse stress basins than the
  /// spectral init, so they are an effort trade, not a free win. Applies
  /// to full two-hop builds via `build_all_frames`; one-hop frames,
  /// incremental rebuilds, and direct `mdsmap_frame` calls always run
  /// cold.
  bool warm_start = true;
  /// Adaptive effort: exit SMACOF sweeps at the noise-consistent stress
  /// floor or on a stress plateau instead of running the fixed
  /// `smacof_sweeps`/`mdsmap_sweeps` budget, and skip restarts once the
  /// stress is acceptable.
  bool adaptive_sweeps = true;
  /// Batch the frames of one work block into a structure-of-arrays
  /// `linalg::SmacofBatch` sweep loop (bit-identical per frame; purely a
  /// memory-layout optimization). Drives the blocked full-build path at
  /// kBoundaryIdentical and the per-wave blocks of the kFast warm path.
  bool blocked_smacof = true;
  /// Stress floor for the adaptive early exit, as a multiple of the
  /// noise-consistent per-pair residual (e·R)²/3 (dimensionless). 1.0
  /// stops at the expected residual of the *true* configuration. Off (0)
  /// by default: the legacy full-budget refinement overfits far below the
  /// noise floor at every e, so any fixed factor leaves `stress_rms`
  /// elevated and the UBF slack model overcalls the boundary (measured:
  /// mistaken-rate 0.23→0.38 on fig1 at e = 0.2 with a 0.45 floor). The
  /// plateau exit below captures most of the savings at a converged
  /// landing level; set a positive factor only when boundary drift is
  /// acceptable (kFast-style throughput runs). Only read when
  /// `adaptive_sweeps` is active.
  double adaptive_floor = 0.0;
  /// Consecutive stress evaluations (count — one evaluation per
  /// `stress_stride` sweeps) with relative improvement below
  /// `plateau_rel_tol` before the plateau exit fires. Only read when
  /// `adaptive_sweeps` is active.
  int plateau_sweeps = 4;
  /// Relative stress improvement (dimensionless, Δstress/stress across
  /// one evaluation interval of `stress_stride` sweeps) under which an
  /// evaluation counts toward the plateau.
  double plateau_rel_tol = 6e-4;
  /// Guttman sweeps per stress evaluation (count, ≥ 1) at the optimized
  /// tiers; kBitwise always evaluates every sweep. The stress pass is
  /// about a third of the sweep loop and only drives exit checks, so 2
  /// halves that overhead at twice-coarser exit granularity. The default
  /// plateau knobs are calibrated for stride 2 (4 evaluations × 2 sweeps
  /// ≈ the 8-sweep tail a stride-1 run would watch).
  int stress_stride = 2;
  /// Plateau guard, as a multiple of the e-noise floor
  /// (pairs × (e·R)²/3, dimensionless multiplier): sweeps count toward
  /// the plateau only once the stress is within `plateau_guard` × that
  /// floor. A refinement stalled far above it is a fold-over still
  /// unfolding and keeps its full budget — in particular at zero
  /// measurement error, where the floor is (near) zero and slow-but-real
  /// convergence must never be truncated.
  double plateau_guard = 4.0;
  /// Subspace-iteration budget (iteration cap / relative Rayleigh-quotient
  /// tolerance) for the classical-MDS init of two-hop patches at the
  /// optimized tiers. The init only seeds the measured-pair SMACOF
  /// refinement, so the pre-PR tolerance (1e-6, kept by kBitwise together
  /// with the 60-iteration cap) polishes eigenvectors far beyond what the
  /// refinement basin needs; 1e-4 exits the subspace iteration several
  /// times earlier at measured-identical detection quality. Hard iteration
  /// caps below ~30 do visibly degrade the init (fold-overs the
  /// refinement cannot undo) — lower the tolerance, not the cap.
  int mds_eigen_iters = 60;
  double mds_eigen_tol = 1e-4;
  /// A warm frame counts as a hit when its final stress is at or below
  /// `warm_accept_factor` × the e-noise floor (pairs × (e·R)²/3;
  /// dimensionless multiplier). kFast keeps the frame either way — the
  /// gate feeds the warm_hits/misses accounting that tracks how often
  /// warm starts land in good basins.
  double warm_accept_factor = 1.0;
  /// Minimum shared members (count) between the base gauge and a further
  /// neighbor frame for a rigid Procrustes import — 3D alignment needs at
  /// least 4 non-degenerate anchors.
  std::size_t warm_min_anchors = 4;
  /// Minimum fraction (0..1) of a frame's members that must be covered by
  /// neighbor imports for the warm init to be attempted; below it the node
  /// builds cold.
  double warm_min_coverage = 0.5;
  /// Frames per schedule block (count) batched into one SmacofBatch when
  /// `blocked_smacof` is active; also the work-unit granularity of the
  /// wave-parallel build.
  std::size_t batch_frames = 8;

  /// The optimization flags above, gated by the tier.
  bool warm_start_active() const {
    return warm_start && tier == EquivalenceTier::kFast;
  }
  bool adaptive_active() const {
    return adaptive_sweeps && tier != EquivalenceTier::kBitwise;
  }
  bool blocked_active() const {
    return blocked_smacof && tier != EquivalenceTier::kBitwise;
  }
};

/// Effort/outcome accounting of one frame build (a `build_all_frames` call
/// or a single direct frame build). Exported as `loc.*` obs counters and
/// through `core::PipelineResult::localize_stats`.
struct FrameBuildStats {
  /// Frames processed, including degenerate (< 4 one-hop members) and
  /// masked-dead placeholders.
  std::uint64_t frames_built = 0;
  /// Warm-started frames (kFast) whose refined stress met the acceptance
  /// gate.
  std::uint64_t warm_hits = 0;
  /// Warm-started frames that missed the gate (kept anyway — kFast tracks
  /// rather than guarantees accuracy).
  std::uint64_t warm_misses = 0;
  /// Frames refined from a cold classical-MDS/eigen init: every frame at
  /// kBitwise/kBoundaryIdentical, plus kFast schedule roots and nodes
  /// without enough warm coverage.
  std::uint64_t cold_builds = 0;
  /// SMACOF sweeps actually executed vs. the budget the fixed
  /// configuration would have allowed for the same runs.
  std::uint64_t sweeps_executed = 0;
  std::uint64_t sweep_budget = 0;
  /// Restart attempts skipped because the stress was already acceptable.
  std::uint64_t restarts_skipped = 0;
  /// Refinement runs that exited on the stress plateau cap.
  std::uint64_t plateau_exits = 0;
  /// Refinement runs that exited at the noise-consistent stress floor.
  std::uint64_t stress_exits = 0;

  void merge(const FrameBuildStats& o) {
    frames_built += o.frames_built;
    warm_hits += o.warm_hits;
    warm_misses += o.warm_misses;
    cold_builds += o.cold_builds;
    sweeps_executed += o.sweeps_executed;
    sweep_budget += o.sweep_budget;
    restarts_skipped += o.restarts_skipped;
    plateau_exits += o.plateau_exits;
    stress_exits += o.stress_exits;
  }
};

class Localizer {
 public:
  Localizer(const net::Network& network, const net::NoisyDistanceModel& model,
            LocalizerConfig config = {});

  /// Builds node i's local frame from one-hop measurements only. `alive`,
  /// when non-null, masks out crashed nodes: dead neighbors contribute no
  /// membership and no measurements (they are silent), shrinking the frame
  /// exactly as a real crash would. A null mask is bit-identical to the
  /// pre-mask behavior. The measurement model draws per node-id pair, so a
  /// masked frame's surviving measurements match the unmasked ones bitwise.
  /// `effort`, here and on `mdsmap_frame`, when non-null accumulates the
  /// build's SMACOF effort accounting (sweeps, exits, skipped restarts).
  /// `node_effort` applies the per-node effort class (see `EffortClass`;
  /// kDefault is bit-identical to the pre-plan behavior).
  LocalFrame local_frame(net::NodeId i,
                         const std::vector<char>* alive = nullptr,
                         FrameBuildStats* effort = nullptr,
                         EffortClass node_effort = EffortClass::kDefault)
      const;

  /// Builds node i's frame over its full two-hop neighborhood, MDS-MAP(P)
  /// style (Shang & Ruml [31], the method the paper adopts): classical MDS
  /// on the shortest-path-completed two-hop distance matrix, then stress
  /// majorization over the measured pairs. Every patch member carries
  /// close to its full degree of constraints here (vs ~⅓ in a one-hop
  /// frame), which suppresses the fold-over ambiguities that dominate
  /// one-hop embeddings. This is the frame Unit Ball Fitting consumes.
  /// `alive` masks crashed nodes out of the patch (see `local_frame`);
  /// dead nodes neither join the member set nor relay two-hop membership.
  LocalFrame mdsmap_frame(net::NodeId i,
                          const std::vector<char>* alive = nullptr,
                          FrameBuildStats* effort = nullptr,
                          EffortClass node_effort = EffortClass::kDefault)
      const;

  /// The init stage of `mdsmap_frame` — member gather, measured-pair
  /// fill, shortest-path completion, classical-MDS spectral start —
  /// without the refinement. Returns false when the neighborhood is
  /// degenerate (`frame` is then finalized not-ok). On success `frame`
  /// holds members/one_hop_count (coords still empty), `init` the start
  /// coordinates, `measured_pairs` the measured-pair count, and the
  /// calling thread's scratch matrices the measured-pair system the
  /// refinement must honor (valid until the thread's next frame build).
  /// Building block of the blocked `build_all_frames` path, which batches
  /// the refinement across frames; `mdsmap_frame` == this +
  /// `refine_embedding` on the scratch system.
  bool mdsmap_init(net::NodeId i, const std::vector<char>* alive,
                   LocalFrame& frame, std::vector<geom::Vec3>& init,
                   std::size_t& measured_pairs,
                   EffortClass node_effort = EffortClass::kDefault) const;

  /// `mdsmap_frame` for a node whose first refinement attempt already ran
  /// elsewhere (the blocked batch): re-runs the init stage, then applies
  /// the restart policy with `attempt0`/`attempt0_stress` standing in for
  /// the first attempt. Bit-identical to `mdsmap_frame` whenever
  /// `attempt0` is what the monolithic loop's first attempt would have
  /// produced (which the SmacofBatch equivalence guarantees).
  LocalFrame mdsmap_frame_resume(
      net::NodeId i, const std::vector<char>* alive,
      const std::vector<geom::Vec3>& attempt0, double attempt0_stress,
      FrameBuildStats* effort = nullptr,
      EffortClass node_effort = EffortClass::kDefault) const;

  /// Re-runs SMACOF on an (assembled) frame against every measured pair
  /// among its members — pairs that are mutual one-hop neighbors anywhere
  /// in the frame, not only pairs seen from the owner. Used to make
  /// stitched two-hop frames globally consistent.
  void refine_with_measurements(LocalFrame& frame, int sweeps = 30) const;

  /// RMS coordinate error of a frame against ground truth, after optimal
  /// rigid alignment (evaluation helper; not available to nodes).
  double frame_rms_error(const LocalFrame& frame) const;

  const net::Network& network() const { return *network_; }
  const net::NoisyDistanceModel& model() const { return *model_; }
  const LocalizerConfig& config() const { return config_; }
  /// The shared per-edge measurement cache, or nullptr when disabled.
  const net::EdgeMeasurementCache* edge_cache() const {
    return edge_cache_ ? &*edge_cache_ : nullptr;
  }

 private:
  /// SMACOF with restart logic shared by both frame builders: refines
  /// `init` against the measured pairs (w > 0), restarting from perturbed
  /// initializations while the stress exceeds the noise-consistent level.
  /// When `attempt0` is non-null, the first attempt is not executed —
  /// `*attempt0`/`attempt0_stress` stand in for its result and only the
  /// perturbed restarts (same per-node RNG stream) may run.
  std::vector<geom::Vec3> refine_embedding(
      const linalg::Matrix& d, const linalg::Matrix& w,
      std::vector<geom::Vec3> init, net::NodeId node, int sweeps_override = 0,
      double* stress_rms = nullptr, FrameBuildStats* effort = nullptr,
      const std::vector<geom::Vec3>* attempt0 = nullptr,
      double attempt0_stress = 0.0,
      EffortClass node_effort = EffortClass::kDefault) const;

  const net::Network* network_;
  const net::NoisyDistanceModel* model_;
  LocalizerConfig config_;
  /// Per-edge measured distances, drawn once at construction (nullopt when
  /// `config_.use_edge_cache` is off). Shared read-only by all frame builds
  /// on all threads.
  std::optional<net::EdgeMeasurementCache> edge_cache_;
};

/// Two-hop frames by patch stitching.
///
/// The emptiness check of Unit Ball Fitting needs the positions of every
/// node that could lie inside a candidate ball — up to 2r away from the
/// testing node (Lemma 1 witnesses are "within 2r"). A node obtains those
/// localized-ly in one extra message exchange: each neighbor j shares its
/// own one-hop frame, and node i aligns it onto its frame with orthogonal
/// Procrustes over their common members ({i, j} ∪ (N(i) ∩ N(j)), typically
/// a dozen nodes). Nodes imported through several neighbors are averaged.
///
/// All per-node frames are computed once up front (the expensive MDS part);
/// stitching itself is a handful of 3×3 operations per edge.
class TwoHopFrames {
 public:
  /// Precomputes every node's one-hop frame. `threads` = 0 → hardware.
  explicit TwoHopFrames(const Localizer& localizer, unsigned threads = 0);

  /// The stitched two-hop frame of node `i` (one_hop_count marks the
  /// boundary between one-hop members and imported two-hop members).
  /// `refine_sweeps` > 0 adds a whole-frame SMACOF pass over every
  /// measured pair among the members — in the two-hop set each member has
  /// roughly its full degree of constraints (vs ~⅓ in a one-hop frame),
  /// which suppresses fold-over ambiguities.
  LocalFrame frame(net::NodeId i, int refine_sweeps = 40) const;

  /// The cached one-hop frame of node `i`.
  const LocalFrame& one_hop_frame(net::NodeId i) const {
    return frames_[i];
  }

  const net::Network& network() const { return localizer_->network(); }

 private:
  const Localizer* localizer_;
  std::vector<LocalFrame> frames_;
};

/// Which neighborhood a frame covers (mirrors the UBF emptiness scope:
/// one-hop frames for the literal Algorithm 1 listing, two-hop MDS-MAP
/// patches for the paper-accurate default).
enum class FrameScope { kOneHop, kTwoHop };

/// Builds (or partially rebuilds) every node's frame into `frames` — the
/// Localize stage artifact of `core::DetectionSession`, also the round-1
/// loop of `UnitBallFitting::detect`.
///
///   - `alive` (optional): crashed-node mask forwarded to the per-node
///     builders; dead nodes get a default (not-ok) frame.
///   - `rebuild` (optional): when non-null, `frames` must already hold a
///     full build (or default placeholders for frames no caller reads) and
///     only nodes with `(*rebuild)[i] != 0` are recomputed — the
///     incremental re-detection path, and the work-set build of
///     `core::DetectionSession`. Rebuilt nodes run the per-node
///     cold builder; at kBitwise and kBoundaryIdentical a frame is a pure
///     function of (network, measurement model, scope, alive), so a
///     partial rebuild over a sound dirty set is bit-identical to a full
///     build at the same tier. (kFast warm frames depend on the schedule
///     and exist only in full builds.)
///   - `stats` (optional): receives the build's `FrameBuildStats`. The
///     same totals are always added to the `loc.*` obs counters when obs
///     is enabled.
///   - `effort` (optional): per-node effort classes (sized num_nodes) from
///     the session's `core::EffortPlan`. A non-null plan routes the build
///     through the per-node executor — the scheduled (warm/blocked) paths
///     batch frames under one shared config and cannot honor per-node
///     overrides — so escalation rebuilds, which always pass both
///     `rebuild` and `effort`, reuse the masked/partial machinery as-is.
///     An all-kDefault plan is bit-identical to a null one on that path.
///
/// Full two-hop builds pick their executor by tier: kFast with warm_start
/// runs the deterministic BFS wave schedule (frames solved wave by wave,
/// warm-started from already-solved lower-wave neighbor frames, blocks of
/// `batch_frames` per work unit); kBoundaryIdentical with blocked_smacof
/// runs blocks of per-node cold builds whose refinements share one
/// `linalg::SmacofBatch` (bit-identical to the per-node path, see
/// docs/ARCHITECTURE.md). Everything else takes the per-node path.
///
/// Emits one "frame" trace span per rebuilt node under the caller's span
/// (the workers adopt the calling thread's span path). `threads` = 0 uses
/// hardware concurrency; results are independent of the thread count.
void build_all_frames(const Localizer& localizer, FrameScope scope,
                      std::vector<LocalFrame>& frames, unsigned threads = 0,
                      const std::vector<char>* alive = nullptr,
                      const std::vector<char>* rebuild = nullptr,
                      FrameBuildStats* stats = nullptr,
                      const std::vector<EffortClass>* effort = nullptr);

}  // namespace ballfit::localization
