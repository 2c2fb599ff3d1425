#pragma once

/// \file ubf.hpp
/// Unit Ball Fitting (paper Sec. II-A, Algorithm 1).
///
/// Node i is a *potential boundary node* iff an empty unit ball (radius
/// r = 1+ε in radio-range units, no node strictly inside) can be placed
/// touching i. By Lemma 1 it suffices to test the balls determined by i and
/// two of its neighbors (Eq. 1 / `solve_trisphere`), checking emptiness
/// against the one-hop neighborhood — Θ(ρ²) balls × Θ(ρ) nodes each.
///
/// The kernel implementation is optimized (sorted candidate cache, pair
/// pruning, blocker memoization, per-thread scratch arena — see ubf.cpp)
/// but **classification-exact**: every optimization only skips work whose
/// outcome is provably determined, so `test_node`, `collect_empty_balls`,
/// and both detectors return bit-identical results to the naive
/// Algorithm 1 double loop (tests/ubf_oracle_test.cpp asserts this), and
/// results are independent of the worker thread count.

#include <vector>

#include "geom/vec3.hpp"
#include "localization/local_frame.hpp"
#include "net/network.hpp"

namespace ballfit::core {

struct UbfConfig {
  /// ε of Definition 4: the test radius is r = (1+ε) · radio_range.
  /// Larger values restrict detection to larger holes (Sec. II-A3, last
  /// paragraph); ε→0 detects holes of any size.
  double epsilon = 1e-6;
  /// When > 0, overrides the ball radius outright (in absolute units);
  /// used by the hole-size-selectivity ablation.
  double radius_override = 0.0;
  /// A node strictly inside means distance < r − inside_tolerance; the
  /// slack keeps the three on-surface nodes from being miscounted.
  double inside_tolerance = 1e-9;
  /// Extra slack (× radio range) applied to *two-hop* members only: an
  /// imported position blocks a candidate ball only when it is inside by
  /// more than this margin. Imported coordinates carry stitching noise;
  /// without the margin, borderline imports leak into truly-empty outward
  /// balls and suppress real boundary nodes. Interior candidate balls are
  /// unaffected — their blockers sit well inside.
  double two_hop_inside_margin = 0.1;
  /// The emptiness test widens its slack by `noise_margin_factor ×
  /// coordinate-uncertainty` so that coordinate jitter of the expected
  /// magnitude cannot spuriously block a truly empty ball. The uncertainty
  /// is self-calibrated per node from the embedding's residual stress
  /// (LocalFrame::stress_rms); `measurement_error_hint` (fraction of the
  /// radio range) is the fallback when a caller tests raw coordinates.
  double measurement_error_hint = 0.0;
  double noise_margin_factor = 3.0;
  /// Upper bound (× radio range) on the noise-derived slack.
  double noise_margin_cap = 0.3;
  /// Minimum number of empty candidate balls required to declare boundary.
  /// A real boundary node sees many empty balls (every outward-leaning
  /// witness pair yields one); a coordinate-noise fluke sees one or two.
  /// 1 reproduces the literal algorithm; higher values trade missing for
  /// mistaken under noise. With cross-verification on (the default) one
  /// verified ball suffices — the witnesses already suppress flukes.
  std::size_t min_empty_balls = 1;
  /// Frame-reliability gate: a node whose embedding kept a residual stress
  /// far above the ranging-noise floor knows its local frame is folded; a
  /// boundary claim from such a frame is most likely a false positive (and
  /// a single deep false positive can bridge two boundary groups). Nodes
  /// with stress_rms > gate_factor·(e/√3 + gate_floor)·R abstain. Set
  /// gate_factor <= 0 to disable.
  double stress_gate_factor = 2.0;
  double stress_gate_floor = 0.01;
  /// Cross-verification (localized, one extra query round): each empty
  /// ball node i finds is defined by two witnesses j, k; both re-run the
  /// emptiness check for the same ball in their own frames and veto it if
  /// they see a member inside. A fold-over localization artifact in i's
  /// frame must be mirrored in both witnesses' independent frames to
  /// survive, which removes nearly all deep interior false positives —
  /// the ones that bridge boundary groups. Costs one message round.
  bool cross_verify = true;
  /// How many empty balls a node collects as verification candidates.
  std::size_t verify_pool = 6;
  /// Nodes whose neighborhood is too small to embed (< 4 members) cannot
  /// run the test; with this flag (default) they declare themselves
  /// boundary — a degenerate neighborhood is itself boundary evidence.
  bool degenerate_is_boundary = true;

  /// Which nodes the emptiness check sees. A candidate ball touching node
  /// i reaches up to 2r from i, so soundness needs the positions of nodes
  /// within two hops (this is exactly the "within 2r" of Lemma 1):
  ///   - kTwoHop (default): emptiness is tested against the stitched
  ///     two-hop frame. One extra message round (each neighbor shares its
  ///     one-hop frame); reproduces the paper's reported accuracy.
  ///   - kOneHop: the literal Algorithm 1 listing — emptiness against the
  ///     one-hop view only. At realistic densities (avg degree ≈ 18) this
  ///     floods the result with interior false positives, because some
  ///     candidate ball's one-hop-visible lens (expected occupancy ≈ 6
  ///     nodes) is empty by chance among the Θ(ρ²) balls tested. Kept as
  ///     an ablation (`bench_ablation_scope`).
  enum class EmptinessScope { kOneHop, kTwoHop };
  EmptinessScope scope = EmptinessScope::kTwoHop;
};

/// Graded boundary-ness for observability (ROADMAP: "confidence-scored
/// boundaries"). The binary flag thresholds the empty-ball vote count at
/// `min_empty_balls` (= T); the confidence keeps the margin:
///
///   conf = votes / (votes + T),  votes counted up to max(verify_pool, T)
///
/// so conf >= 0.5 exactly when the flag is set, conf = 0 means no empty
/// ball at all, and saturation approaches (but never reaches) 1. Nodes
/// that never run the test score by provenance: crashed or stress-gated
/// nodes 0, degenerate-neighborhood fallbacks exactly 0.5 when they vote
/// boundary (a claim with no ball evidence) and 0 otherwise. On the vote
/// counting paths (no cross-verification, or true coordinates) the score
/// is monotone non-increasing in T for a fixed network
/// (tests/ubf_test.cpp::MonotoneInMinEmptyBalls); under cross-verification
/// the collected candidate pool grows with T, so a rejected candidate can
/// be displaced by a verifying one and the margin may wobble within the
/// same side of the threshold.
///
/// Computing the margin means counting votes *past* the decision
/// threshold, work the classification itself never needs — so confidence
/// is only produced when a caller passes an output vector, and the
/// pipeline only asks when `obs::enabled()`. Flags are bit-identical
/// either way: the extra counting starts after the threshold decision is
/// already determined.
double vote_confidence(std::size_t votes, std::size_t threshold);

/// Per-node work counters (Theorem 1's Θ(ρ³) in the wild).
struct UbfNodeDiagnostics {
  /// Candidate balls whose emptiness was evaluated (count, default 0).
  /// Pair pruning never changes this: pruned pairs are exactly those whose
  /// trisphere solve would have produced zero balls.
  std::size_t balls_tested = 0;
  /// Member distance checks performed across all emptiness scans (count).
  /// This is where the optimized kernel wins: nearest-first ordering,
  /// the sorted-distance cutoff, and blocker memoization shrink it far
  /// below the naive balls × members product.
  std::size_t nodes_checked = 0;
  /// Empty candidate balls found before the sweep stopped (count).
  std::size_t empty_balls = 0;
  /// True when the vote threshold (`UbfConfig::min_empty_balls`) was met.
  bool found_empty_ball = false;
};

class UnitBallFitting {
 public:
  explicit UnitBallFitting(const net::Network& network, UbfConfig config = {});

  /// The effective test radius r.
  double ball_radius() const { return radius_; }

  /// True when a frame with residual `stress_rms` passes the reliability
  /// gate for the configured error hint (see UbfConfig::stress_gate_*).
  bool frame_reliable(double stress_rms) const;

  /// Localized detection: each node embeds its neighborhood with
  /// `localizer` (two-hop MDS-MAP patches by default, one-hop frames when
  /// the scope is kOneHop), runs the test in its own local frame, and —
  /// with cross_verify — has its witnesses confirm each empty ball.
  /// `threads` parallelizes the per-node work (0 = hardware concurrency).
  /// `frame_fallbacks`, when non-null, receives the number of nodes whose
  /// neighborhood was too small/degenerate to embed — the nodes that voted
  /// `degenerate_is_boundary` instead of running the test.
  std::vector<bool> detect(const localization::Localizer& localizer,
                           unsigned threads = 0,
                           std::size_t* frame_fallbacks = nullptr) const;

  /// The ball-test round of `detect` on prebuilt frames (one per node, as
  /// produced by `localization::build_all_frames` with the scope from
  /// `config()`). `detect` is exactly frame build + this call, bit for
  /// bit; `DetectionSession` uses the split to reuse frames across runs.
  /// `confidence`, when non-null, is resized to num_nodes and filled with
  /// the per-node score described at `vote_confidence` (requests the
  /// extra vote counting; flags are unaffected).
  std::vector<bool> detect_on_frames(
      const std::vector<localization::LocalFrame>& frames,
      unsigned threads = 0, std::size_t* frame_fallbacks = nullptr,
      std::vector<float>* confidence = nullptr) const;

  /// Masked / partial variant of `detect_on_frames` for incremental
  /// re-detection: recomputes `flags[i]` (1 = candidate) for every node
  /// with `(*run_mask)[i] != 0` (all nodes when null), leaving the rest
  /// untouched; dead nodes (`alive` given and `(*alive)[i] == 0`) always
  /// get 0. Each node's flag is a pure function of (its frame, its one-hop
  /// witnesses' frames, config), so running this over a dirty set that
  /// covers every node whose inputs changed reproduces the full run
  /// bit-identically. Thread-count independent like `detect`.
  /// `confidence`, when non-null, must be pre-sized to num_nodes; entries
  /// are rewritten under the same mask discipline as `flags`.
  /// `effort`, when non-null (sized num_nodes), is the per-node vote-budget
  /// mask of the effort control plane: a `kFull` node collects twice the
  /// configured `verify_pool` of candidate balls (denser ball tests for
  /// marginal nodes); `kCheap`/`kDefault` keep the configured budget —
  /// the budget is only ever *grown*, never shrunk, because the candidate
  /// enumeration order is fixed and an extended sweep only appends votes,
  /// so a kFull node's verified count is monotone non-decreasing in the
  /// pool and its flag can flip 0→1 but never 1→0 relative to the default
  /// budget. A null (or all-non-kFull) mask is bit-identical to the
  /// pre-plan behavior.
  void update_flags_on_frames(
      const std::vector<localization::LocalFrame>& frames,
      std::vector<char>& flags, const std::vector<char>* alive = nullptr,
      const std::vector<char>* run_mask = nullptr, unsigned threads = 0,
      std::vector<float>* confidence = nullptr,
      const std::vector<localization::EffortClass>* effort = nullptr) const;

  /// Oracle detection using true coordinates (the 0%-error reference; UBF
  /// is invariant to the rigid-motion gauge, so this equals `detect` with a
  /// noiseless measurement model). `frame_fallbacks` counts nodes with too
  /// few neighbors to test, as in `detect`. `alive`, when non-null, masks
  /// crashed nodes out of every neighborhood (dead nodes test nothing and
  /// are never counted as fallbacks); null is the pre-mask behavior.
  std::vector<bool> detect_with_true_coordinates(
      std::size_t* frame_fallbacks = nullptr,
      const std::vector<char>* alive = nullptr,
      std::vector<float>* confidence = nullptr) const;

  /// Masked / partial variant of the oracle detector, in the in/out form of
  /// `update_flags_on_frames`: recomputes `flags[i]` for every node with
  /// `(*run_mask)[i] != 0` (all nodes when null) and leaves the rest
  /// untouched; dead nodes get 0. A node's flag reads only the alive
  /// positions within two hops of it, so a run over a mask that covers
  /// every node whose two-hop alive neighborhood changed — plus every node
  /// with fewer than 3 alive neighbors, the readers of
  /// `degenerate_is_boundary` — reproduces the full call bit-identically.
  /// `confidence`, when non-null, must be pre-sized to num_nodes; entries
  /// follow the same mask discipline. `frame_fallbacks`, when non-null,
  /// receives the number of *run* nodes that voted the degenerate default.
  /// `threads` parallelizes the per-node tests (default 1, serial; 0 =
  /// hardware concurrency); results are identical for every count.
  void detect_with_true_coordinates(
      std::vector<char>& flags, const std::vector<char>* alive,
      const std::vector<char>* run_mask, std::vector<float>* confidence,
      std::size_t* frame_fallbacks = nullptr, unsigned threads = 1) const;

  /// The per-node kernel: runs the unit-ball test on an explicit point set.
  /// `coords[self_index]` is the node under test; entries with index
  /// < witness_count are one-hop members (candidate-ball witnesses);
  /// entries beyond are emptiness-only members (two-hop view). All share
  /// one (arbitrary) frame. `coord_uncertainty` is the caller's estimate
  /// of per-coordinate error (absolute units); negative derives it from
  /// `measurement_error_hint`.
  bool test_node(const std::vector<geom::Vec3>& coords, std::size_t self_index,
                 std::size_t witness_count,
                 UbfNodeDiagnostics* diag = nullptr,
                 double coord_uncertainty = -1.0) const;

  /// Overload where every member is a witness (pure one-hop view).
  bool test_node(const std::vector<geom::Vec3>& coords, std::size_t self_index,
                 UbfNodeDiagnostics* diag = nullptr) const {
    return test_node(coords, self_index, coords.size(), diag);
  }

  /// Like test_node, but collects up to `max_balls` empty balls as
  /// (witness_j, witness_k) index pairs instead of stopping at the vote
  /// threshold. Used by the cross-verification round. `diag`, when
  /// non-null, receives the per-node work counts (balls tested, nodes
  /// checked, empty balls found) for observability.
  std::vector<std::pair<std::size_t, std::size_t>> collect_empty_balls(
      const std::vector<geom::Vec3>& coords, std::size_t self_index,
      std::size_t witness_count, std::size_t max_balls,
      double coord_uncertainty, UbfNodeDiagnostics* diag = nullptr) const;

  /// Number of empty candidate balls, counted in exactly `test_node`'s
  /// enumeration order but *without* stopping at the vote threshold —
  /// the sweep runs until `cap` empty balls are found or the pairs are
  /// exhausted. With cap >= min_empty_balls, `count >= min_empty_balls`
  /// reproduces `test_node`'s verdict bit for bit; the surplus over the
  /// threshold is the confidence margin.
  std::size_t count_empty_balls(const std::vector<geom::Vec3>& coords,
                                std::size_t self_index,
                                std::size_t witness_count, std::size_t cap,
                                double coord_uncertainty = -1.0,
                                UbfNodeDiagnostics* diag = nullptr) const;

  /// Witness-side check: in `frame` (the witness's own frame), is at least
  /// one of the balls through nodes (a, b, c) empty? Returns true when the
  /// witness cannot evaluate the triple (missing members / bad frame) —
  /// benefit of the doubt.
  bool witness_confirms(const localization::LocalFrame& frame, net::NodeId a,
                        net::NodeId b, net::NodeId c) const;

  const UbfConfig& config() const { return config_; }

  /// Squared "strictly inside" thresholds (absolute units²): a member at
  /// squared distance d² from a candidate center blocks the ball iff
  /// d² < one_hop_sq (one-hop members) or d² < two_hop_sq (imported
  /// two-hop members; always <= one_hop_sq). Public so reference
  /// implementations (oracle tests, baselines) can reproduce the exact
  /// emptiness predicate.
  struct InsideLimits {
    double one_hop_sq;
    double two_hop_sq;
  };
  /// The thresholds at a given per-coordinate uncertainty (absolute units;
  /// negative derives it from `measurement_error_hint` — see the margin
  /// discussion above).
  InsideLimits inside_limits(double coord_uncertainty) const;

 private:
  const net::Network* network_;
  UbfConfig config_;
  double radius_;
};

}  // namespace ballfit::core
