#include "core/ubf.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/assert.hpp"
#include "common/epoch_map.hpp"
#include "common/parallel.hpp"
#include "geom/candidate_cache.hpp"
#include "geom/trisphere.hpp"
#include "net/graph.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

using geom::Vec3;
using net::NodeId;

double vote_confidence(std::size_t votes, std::size_t threshold) {
  if (threshold == 0) return votes > 0 ? 1.0 : 0.0;
  return static_cast<double>(votes) /
         static_cast<double>(votes + threshold);
}

UnitBallFitting::UnitBallFitting(const net::Network& network, UbfConfig config)
    : network_(&network), config_(config) {
  BALLFIT_REQUIRE(config_.epsilon >= 0.0, "epsilon must be non-negative");
  radius_ = config_.radius_override > 0.0
                ? config_.radius_override
                : (1.0 + config_.epsilon) * network.radio_range();
  BALLFIT_REQUIRE(radius_ >= network.radio_range(),
                  "ball radius below the radio range would mark every node "
                  "a boundary node (Definition 4 requires r >= 1)");
}

bool UnitBallFitting::frame_reliable(double stress_rms) const {
  if (config_.stress_gate_factor <= 0.0) return true;
  const double noise_floor =
      config_.measurement_error_hint / std::sqrt(3.0) +
      config_.stress_gate_floor;
  return stress_rms <= config_.stress_gate_factor * noise_floor *
                           network_->radio_range();
}

UnitBallFitting::InsideLimits UnitBallFitting::inside_limits(
    double coord_uncertainty) const {
  // Per-node slack against coordinate jitter: σ from the caller (embedding
  // residual) or, as a fallback, from the nominal ranging spec
  // (Uniform(−e,e) has σ = e/√3).
  const double sigma =
      coord_uncertainty >= 0.0
          ? coord_uncertainty
          : config_.measurement_error_hint * network_->radio_range() /
                std::sqrt(3.0);
  const double noise_margin =
      std::min(config_.noise_margin_cap * network_->radio_range(),
               config_.noise_margin_factor * sigma);
  const double one_hop =
      std::max(0.0, radius_ - config_.inside_tolerance - noise_margin);
  const double two_hop =
      std::max(0.0, one_hop - config_.two_hop_inside_margin *
                                  network_->radio_range());
  return {one_hop * one_hop, two_hop * two_hop};
}

namespace {

/// Is the ball at `center` empty of all members except the defining triple?
/// The naive full scan — kept for the witness-side check, which evaluates
/// only a handful of balls per frame and would not amortize a cache build.
bool ball_is_empty(const std::vector<Vec3>& coords, const Vec3& center,
                   std::size_t skip_a, std::size_t skip_b, std::size_t skip_c,
                   std::size_t witness_count, double one_hop_limit_sq,
                   double two_hop_limit_sq) {
  for (std::size_t u = 0; u < coords.size(); ++u) {
    if (u == skip_a || u == skip_b || u == skip_c) continue;
    const double limit_sq =
        u < witness_count ? one_hop_limit_sq : two_hop_limit_sq;
    if (coords[u].distance_sq_to(center) < limit_sq) return false;
  }
  return true;
}

/// Per-thread scratch arena, reused across every node a worker processes.
/// Holds the sorted candidate cache, the per-slot emptiness thresholds
/// (structure-of-arrays buffers), and the two-hop gather buffers of the
/// oracle detector. Steady state performs no allocations; contents never
/// influence results (everything is rebuilt per node), so detection output
/// is independent of how nodes are distributed over threads.
struct UbfScratch {
  geom::CandidateCache cache;
  std::vector<double> lim_sq;  // per-slot threshold; < 0 disables
  std::vector<Vec3> gather;    // oracle detector: member coordinates
  EpochSlotMap seen;           // oracle detector: membership dedup
};

UbfScratch& local_scratch() {
  static thread_local UbfScratch scratch;
  return scratch;
}

/// The optimized Algorithm 1 pair sweep. Enumerates empty candidate balls
/// in exactly the order the naive double loop finds them; every shortcut
/// below is provably outcome-neutral, so classification stays bit-identical
/// to the naive kernel (tests/ubf_oracle_test.cpp):
///
///   - **Pair pruning**: a sphere of radius r through two points farther
///     apart than 2r does not exist (circumradius > r), so such pairs are
///     skipped before the Eq. 1 solve. The 1e-9 relative slack keeps the
///     prune strictly conservative against rounding: only pairs whose
///     solve provably returns zero centers are dropped.
///   - **Nearest-first scans with a distance cutoff**: members are walked
///     in ascending distance-to-self order; since |u−c| >= |u−self| −
///     |self−c|, once a member is beyond |self−c| + limit (+slack) no later
///     member can be strictly inside, and the scan stops.
///   - **Blocker memoization**: consecutive candidate balls overlap
///     heavily, so the member that blocked the previous ball is re-tested
///     first. Checking any one member first cannot change the emptiness
///     conjunction.
///   - **Witness masking**: the pair's own witnesses are excluded from the
///     scan by setting their slot threshold to −1 (no distance is below
///     it) instead of branching on indices in the inner loop.
class BallSweep {
 public:
  /// What the `on_empty(j, k)` callback tells the sweep to do next.
  enum class Step {
    kContinue,  // keep testing this pair's remaining candidate ball
    kNextPair,  // done with this pair, move to the next
    kStop,      // abort the whole sweep
  };

  BallSweep(const std::vector<Vec3>& coords, std::size_t self_index,
            std::size_t witness_count, double radius,
            UnitBallFitting::InsideLimits limits, UbfScratch& scratch)
      : coords_(coords),
        self_(coords[self_index]),
        self_index_(self_index),
        witness_count_(witness_count),
        radius_(radius),
        scratch_(scratch) {
    scratch.cache.rebuild(coords, self_index);
    const std::size_t n = scratch.cache.size();
    scratch.lim_sq.resize(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      scratch.lim_sq[slot] =
          scratch.cache.original_index(slot) < witness_count
              ? limits.one_hop_sq
              : limits.two_hop_sq;
    }
    // two_hop_sq <= one_hop_sq by construction (see inside_limits).
    lim_max_ = std::sqrt(limits.one_hop_sq);
    pair_prune_sq_ = 4.0 * radius * radius * (1.0 + 1e-9);
    cutoff_slack_ = 1e-9 * radius;
  }

  /// Runs the sweep, accumulating work counts into `diag` and invoking
  /// `on_empty(j, k)` for every empty candidate ball, in naive order.
  template <typename Fn>
  void run(UbfNodeDiagnostics& diag, Fn&& on_empty) {
    const geom::CandidateCache& cache = scratch_.cache;
    std::vector<double>& lim = scratch_.lim_sq;
    const double* dist_sq = cache.dist_sq();
    bool stop = false;
    for (std::size_t j = 0; j < witness_count_ && !stop; ++j) {
      if (j == self_index_) continue;
      const std::uint32_t sj = cache.slot_of(j);
      if (dist_sq[sj] > pair_prune_sq_) continue;
      const Vec3& pj = coords_[j];
      const double save_j = lim[sj];
      lim[sj] = -1.0;  // witness of every ball in this j-iteration
      for (std::size_t k = j + 1; k < witness_count_ && !stop; ++k) {
        if (k == self_index_) continue;
        const std::uint32_t sk = cache.slot_of(k);
        if (dist_sq[sk] > pair_prune_sq_) continue;
        const Vec3& pk = coords_[k];
        if (pj.distance_sq_to(pk) > pair_prune_sq_) continue;
        const geom::TrisphereResult balls =
            geom::solve_trisphere(self_, pj, pk, radius_);
        if (balls.count == 0) continue;
        const double save_k = lim[sk];
        lim[sk] = -1.0;
        for (int c = 0; c < balls.count; ++c) {
          ++diag.balls_tested;
          if (!ball_empty(balls.centers[c], diag)) continue;
          ++diag.empty_balls;
          const Step step = on_empty(j, k);
          if (step == Step::kNextPair) break;
          if (step == Step::kStop) {
            stop = true;
            break;
          }
        }
        lim[sk] = save_k;
      }
      lim[sj] = save_j;
    }
  }

 private:
  static constexpr std::uint32_t kNoSlot = geom::CandidateCache::kNoSlot;

  bool ball_empty(const Vec3& center, UbfNodeDiagnostics& diag) {
    const geom::CandidateCache& cache = scratch_.cache;
    const double* lim = scratch_.lim_sq.data();
    // Blocker memoization. A masked witness slot holds threshold −1 and
    // thus can never (re-)block here.
    if (last_blocker_ != kNoSlot) {
      ++diag.nodes_checked;
      if (cache.dist_sq_to(last_blocker_, center) < lim[last_blocker_]) {
        return false;
      }
    }
    const std::size_t n = cache.size();
    const double* xs = cache.xs();
    const double* ys = cache.ys();
    const double* zs = cache.zs();
    const double* dist_sq = cache.dist_sq();
    // |self − center| is r up to solver rounding; compute it instead of
    // assuming, so the cutoff is sound for every center the solver emits.
    const double center_dist = std::sqrt(self_.distance_sq_to(center));
    const double cutoff = center_dist + lim_max_ + cutoff_slack_;
    const double cutoff_sq = cutoff * cutoff;
    for (std::size_t s = 0; s < n; ++s) {
      if (dist_sq[s] >= cutoff_sq) break;  // sorted: nobody farther blocks
      const double dx = xs[s] - center.x;
      const double dy = ys[s] - center.y;
      const double dz = zs[s] - center.z;
      const double d2 = dx * dx + dy * dy + dz * dz;
      ++diag.nodes_checked;
      if (d2 < lim[s]) {
        last_blocker_ = static_cast<std::uint32_t>(s);
        return false;
      }
    }
    return true;
  }

  const std::vector<Vec3>& coords_;
  const Vec3 self_;
  const std::size_t self_index_;
  const std::size_t witness_count_;
  const double radius_;
  UbfScratch& scratch_;
  double lim_max_ = 0.0;
  double pair_prune_sq_ = 0.0;
  double cutoff_slack_ = 0.0;
  std::uint32_t last_blocker_ = kNoSlot;
};

}  // namespace

bool UnitBallFitting::test_node(const std::vector<Vec3>& coords,
                                std::size_t self_index,
                                std::size_t witness_count,
                                UbfNodeDiagnostics* diag,
                                double coord_uncertainty) const {
  BALLFIT_REQUIRE(self_index < coords.size(), "self index out of range");
  BALLFIT_REQUIRE(witness_count <= coords.size(),
                  "witness count exceeds member count");
  const InsideLimits limits = inside_limits(coord_uncertainty);

  UbfNodeDiagnostics local;
  // Algorithm 1, lines 4–9: every unordered pair {j,k} of one-hop members
  // spawns up to two candidate balls; each ball is checked for emptiness
  // against the full member set (one- or two-hop view per config).
  BallSweep sweep(coords, self_index, witness_count, radius_, limits,
                  local_scratch());
  sweep.run(local, [&](std::size_t, std::size_t) {
    if (local.empty_balls >= config_.min_empty_balls) {
      local.found_empty_ball = true;
      return BallSweep::Step::kStop;
    }
    return BallSweep::Step::kContinue;
  });
  if (diag != nullptr) *diag = local;
  return local.found_empty_ball;
}

std::vector<std::pair<std::size_t, std::size_t>>
UnitBallFitting::collect_empty_balls(const std::vector<Vec3>& coords,
                                     std::size_t self_index,
                                     std::size_t witness_count,
                                     std::size_t max_balls,
                                     double coord_uncertainty,
                                     UbfNodeDiagnostics* diag) const {
  BALLFIT_REQUIRE(self_index < coords.size(), "self index out of range");
  BALLFIT_REQUIRE(witness_count <= coords.size(),
                  "witness count exceeds member count");
  UbfNodeDiagnostics local;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (max_balls > 0) {
    const InsideLimits limits = inside_limits(coord_uncertainty);
    BallSweep sweep(coords, self_index, witness_count, radius_, limits,
                    local_scratch());
    sweep.run(local, [&](std::size_t j, std::size_t k) {
      out.push_back({j, k});
      // One empty side per witness pair is enough; stop outright at the
      // collection cap.
      return out.size() >= max_balls ? BallSweep::Step::kStop
                                     : BallSweep::Step::kNextPair;
    });
  }
  local.found_empty_ball = !out.empty();
  if (diag != nullptr) *diag = local;
  return out;
}

std::size_t UnitBallFitting::count_empty_balls(const std::vector<Vec3>& coords,
                                               std::size_t self_index,
                                               std::size_t witness_count,
                                               std::size_t cap,
                                               double coord_uncertainty,
                                               UbfNodeDiagnostics* diag) const {
  BALLFIT_REQUIRE(self_index < coords.size(), "self index out of range");
  BALLFIT_REQUIRE(witness_count <= coords.size(),
                  "witness count exceeds member count");
  UbfNodeDiagnostics local;
  if (cap > 0) {
    const InsideLimits limits = inside_limits(coord_uncertainty);
    BallSweep sweep(coords, self_index, witness_count, radius_, limits,
                    local_scratch());
    // Same kContinue walk as test_node (multiple balls per pair count),
    // only the stop condition moves from min_empty_balls out to cap.
    sweep.run(local, [&](std::size_t, std::size_t) {
      return local.empty_balls >= cap ? BallSweep::Step::kStop
                                      : BallSweep::Step::kContinue;
    });
  }
  local.found_empty_ball = local.empty_balls >= config_.min_empty_balls;
  if (diag != nullptr) *diag = local;
  return local.empty_balls;
}

bool UnitBallFitting::witness_confirms(const localization::LocalFrame& frame,
                                       NodeId a, NodeId b, NodeId c) const {
  if (!frame.ok) return true;  // witness cannot evaluate — no veto
  // Locate the triple in the witness's frame (linear scan; frames are
  // small and this runs only for the handful of candidate balls).
  std::size_t ia = frame.members.size(), ib = ia, ic = ia;
  for (std::size_t m = 0; m < frame.members.size(); ++m) {
    if (frame.members[m] == a) ia = m;
    else if (frame.members[m] == b) ib = m;
    else if (frame.members[m] == c) ic = m;
  }
  if (ia == frame.members.size() || ib == frame.members.size() ||
      ic == frame.members.size()) {
    return true;  // triple not fully visible here — no veto
  }

  const geom::TrisphereResult balls = geom::solve_trisphere(
      frame.coords[ia], frame.coords[ib], frame.coords[ic], radius_);
  // Triple too spread/collinear in this frame: the witness cannot form the
  // ball at all, so it cannot refute the claim either — no veto.
  if (balls.count == 0) return true;
  const InsideLimits limits = inside_limits(frame.stress_rms);
  for (int s = 0; s < balls.count; ++s) {
    // Side ambiguity between frames (reflection gauge): confirm when ANY
    // side is empty in the witness frame.
    if (ball_is_empty(frame.coords, balls.centers[s], ia, ib, ic,
                      frame.one_hop_count, limits.one_hop_sq,
                      limits.two_hop_sq)) {
      return true;
    }
  }
  return false;
}

namespace {

/// The ball-test round shared by `detect_on_frames` (full, fallback
/// counting) and `update_flags_on_frames` (masked / partial). Every node
/// the `run_mask` selects is recomputed from scratch; all shortcuts are
/// upstream (which nodes run), never inside a node's decision, so a run
/// over any sound dirty set leaves `flags` equal to a full recompute.
void run_ball_tests(const UnitBallFitting& ubf,
                    const std::vector<localization::LocalFrame>& frames,
                    std::vector<char>& flags, const std::vector<char>* alive,
                    const std::vector<char>* run_mask, unsigned workers,
                    std::atomic<std::size_t>* fallbacks,
                    std::vector<float>* confidence,
                    const std::vector<localization::EffortClass>* effort) {
  const UbfConfig& config = ubf.config();
  const std::size_t n = frames.size();
  const bool want_conf = confidence != nullptr;
  // Per-node candidate-ball budget: the configured pool, doubled for
  // kFull-effort (escalated) nodes. The vote-budget mask only ever grows
  // the pool — see update_flags_on_frames — so the enumeration prefix a
  // default run sees is unchanged. Also the vote cap past the decision
  // threshold (bounded extra work, enough margin to separate "barely
  // boundary" from "saturated").
  const auto vote_budget = [&](std::size_t i) {
    const bool full = effort != nullptr &&
                      (*effort)[i] == localization::EffortClass::kFull;
    return std::max(full ? 2 * config.verify_pool : config.verify_pool,
                    config.min_empty_balls);
  };

  // Per-node work histograms (Theorem 1's Θ(ρ³) in the wild). Handles are
  // fetched once here so the parallel workers below never touch the
  // registry map; null when collection is disabled.
  obs::Histogram* h_neighbors = nullptr;
  obs::Histogram* h_balls = nullptr;
  obs::Histogram* h_empty = nullptr;
  obs::Histogram* h_conf = nullptr;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    h_neighbors = &reg.histogram("ubf.node_neighbors",
                                 {4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64});
    h_balls = &reg.histogram("ubf.candidate_balls",
                             {0, 50, 100, 200, 400, 800, 1600, 3200});
    h_empty = &reg.histogram("ubf.empty_balls", {0, 1, 2, 4, 8, 16, 32});
    if (want_conf) {
      h_conf = &reg.histogram(
          "ubf.confidence", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
    }
  }

  BALLFIT_SPAN("ball_test");
  const std::string parent = obs::current_span_path();
  parallel_for(
      n,
      [&](std::size_t i) {
        if (run_mask != nullptr && (*run_mask)[i] == 0) return;
        const obs::SpanPathScope adopt(parent);
        BALLFIT_SPAN("node");
        const auto set_conf = [&](double c) {
          if (!want_conf) return;
          (*confidence)[i] = static_cast<float>(c);
          if (h_conf != nullptr) h_conf->observe(c);
        };
        if (alive != nullptr && (*alive)[i] == 0) {
          flags[i] = 0;  // crashed nodes claim nothing
          if (want_conf) (*confidence)[i] = 0.0f;
          return;
        }
        const localization::LocalFrame& frame = frames[i];
        if (!frame.ok) {
          flags[i] = config.degenerate_is_boundary ? 1 : 0;
          // A degenerate fallback is a claim with no ball evidence: pin it
          // to the decision threshold when it votes boundary.
          set_conf(config.degenerate_is_boundary ? 0.5 : 0.0);
          if (fallbacks != nullptr) {
            fallbacks->fetch_add(1, std::memory_order_relaxed);
          }
          return;
        }
        BALLFIT_ASSERT(frame.members[0] == static_cast<NodeId>(i));
        if (h_neighbors != nullptr) {
          h_neighbors->observe(
              static_cast<double>(frame.one_hop_count - 1));
        }
        if (!ubf.frame_reliable(frame.stress_rms)) {
          flags[i] = 0;  // abstention, not evidence — score it as none
          set_conf(0.0);
          return;
        }
        UbfNodeDiagnostics diag;
        const std::size_t pool = vote_budget(i);
        if (!config.cross_verify) {
          if (want_conf || pool != std::max(config.verify_pool,
                                            config.min_empty_balls)) {
            const std::size_t votes =
                ubf.count_empty_balls(frame.coords, 0, frame.one_hop_count,
                                      pool, frame.stress_rms, &diag);
            flags[i] = votes >= config.min_empty_balls ? 1 : 0;
            set_conf(vote_confidence(votes, config.min_empty_balls));
          } else {
            flags[i] = ubf.test_node(frame.coords, 0, frame.one_hop_count,
                                     &diag, frame.stress_rms)
                           ? 1
                           : 0;
          }
        } else {
          const auto balls =
              ubf.collect_empty_balls(frame.coords, 0, frame.one_hop_count,
                                      pool, frame.stress_rms, &diag);
          std::size_t verified = 0;
          for (const auto& [j, k] : balls) {
            const NodeId jn = frame.members[j];
            const NodeId kn = frame.members[k];
            if (ubf.witness_confirms(frames[jn], jn, static_cast<NodeId>(i),
                                     kn) &&
                ubf.witness_confirms(frames[kn], kn, static_cast<NodeId>(i),
                                     jn)) {
              ++verified;
              // The verdict is sealed at the threshold; only keep
              // verifying past it when the margin is wanted.
              if (!want_conf && verified >= config.min_empty_balls) break;
            }
          }
          flags[i] = verified >= config.min_empty_balls ? 1 : 0;
          set_conf(vote_confidence(verified, config.min_empty_balls));
        }
        if (h_balls != nullptr) {
          h_balls->observe(static_cast<double>(diag.balls_tested));
        }
        if (h_empty != nullptr) {
          h_empty->observe(static_cast<double>(diag.empty_balls));
        }
      },
      workers);
}

}  // namespace

std::vector<bool> UnitBallFitting::detect(
    const localization::Localizer& localizer, unsigned threads,
    std::size_t* frame_fallbacks) const {
  BALLFIT_REQUIRE(&localizer.network() == network_,
                  "localizer must wrap the same network");
  const bool two_hop = config_.scope == UbfConfig::EmptinessScope::kTwoHop;

  // Round 1: every node builds its local frame (the expensive stage).
  std::vector<localization::LocalFrame> frames;
  {
    BALLFIT_SPAN("mds_frames");
    localization::build_all_frames(localizer,
                                   two_hop ? localization::FrameScope::kTwoHop
                                           : localization::FrameScope::kOneHop,
                                   frames, threads);
  }

  // Round 2: per-node test + witness cross-verification.
  return detect_on_frames(frames, threads, frame_fallbacks);
}

std::vector<bool> UnitBallFitting::detect_on_frames(
    const std::vector<localization::LocalFrame>& frames, unsigned threads,
    std::size_t* frame_fallbacks, std::vector<float>* confidence) const {
  const std::size_t n = network_->num_nodes();
  BALLFIT_REQUIRE(frames.size() == n, "one frame per node required");
  const unsigned workers = threads == 0 ? default_threads() : threads;
  if (confidence != nullptr) confidence->assign(n, 0.0f);

  // vector<bool> is not safe for concurrent writes, hence the char staging
  // buffer.
  std::vector<char> flags(n, 0);
  std::atomic<std::size_t> fallbacks{0};
  run_ball_tests(*this, frames, flags, /*alive=*/nullptr,
                 /*run_mask=*/nullptr, workers, &fallbacks, confidence,
                 /*effort=*/nullptr);

  if (frame_fallbacks != nullptr) {
    *frame_fallbacks = fallbacks.load(std::memory_order_relaxed);
  }
  std::vector<bool> boundary(n, false);
  for (std::size_t i = 0; i < n; ++i) boundary[i] = flags[i] != 0;
  return boundary;
}

void UnitBallFitting::update_flags_on_frames(
    const std::vector<localization::LocalFrame>& frames,
    std::vector<char>& flags, const std::vector<char>* alive,
    const std::vector<char>* run_mask, unsigned threads,
    std::vector<float>* confidence,
    const std::vector<localization::EffortClass>* effort) const {
  const std::size_t n = network_->num_nodes();
  BALLFIT_REQUIRE(frames.size() == n, "one frame per node required");
  BALLFIT_REQUIRE(flags.size() == n, "flags must be sized num_nodes");
  BALLFIT_REQUIRE(confidence == nullptr || confidence->size() == n,
                  "confidence must be pre-sized num_nodes");
  BALLFIT_REQUIRE(effort == nullptr || effort->size() == n,
                  "effort plan must be sized num_nodes");
  const unsigned workers = threads == 0 ? default_threads() : threads;
  run_ball_tests(*this, frames, flags, alive, run_mask, workers,
                 /*fallbacks=*/nullptr, confidence, effort);
}

std::vector<bool> UnitBallFitting::detect_with_true_coordinates(
    std::size_t* frame_fallbacks, const std::vector<char>* alive,
    std::vector<float>* confidence) const {
  const std::size_t n = network_->num_nodes();
  if (confidence != nullptr) confidence->assign(n, 0.0f);
  std::vector<char> flags(n, 0);
  detect_with_true_coordinates(flags, alive, /*run_mask=*/nullptr, confidence,
                               frame_fallbacks);
  std::vector<bool> boundary(n, false);
  for (std::size_t i = 0; i < n; ++i) boundary[i] = flags[i] != 0;
  return boundary;
}

void UnitBallFitting::detect_with_true_coordinates(
    std::vector<char>& flags, const std::vector<char>* alive,
    const std::vector<char>* run_mask, std::vector<float>* confidence,
    std::size_t* frame_fallbacks, unsigned threads) const {
  BALLFIT_SPAN("true_coords");
  const std::size_t n = network_->num_nodes();
  BALLFIT_REQUIRE(flags.size() == n, "flags must be sized num_nodes");
  BALLFIT_REQUIRE(alive == nullptr || alive->size() == n,
                  "alive mask must be sized num_nodes");
  BALLFIT_REQUIRE(run_mask == nullptr || run_mask->size() == n,
                  "run mask must be sized num_nodes");
  BALLFIT_REQUIRE(confidence == nullptr || confidence->size() == n,
                  "confidence must be pre-sized num_nodes");
  const bool two_hop = config_.scope == UbfConfig::EmptinessScope::kTwoHop;
  const bool want_conf = confidence != nullptr;
  const std::size_t conf_cap =
      std::max(config_.verify_pool, config_.min_empty_balls);
  obs::Histogram* h_balls = nullptr;
  obs::Histogram* h_conf = nullptr;
  if (obs::enabled()) {
    h_balls = &obs::Registry::global().histogram(
        "ubf.candidate_balls", {0, 50, 100, 200, 400, 800, 1600, 3200});
    if (want_conf) {
      h_conf = &obs::Registry::global().histogram(
          "ubf.confidence", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
    }
  }
  const auto set_conf = [&](NodeId i, double c) {
    if (!want_conf) return;
    (*confidence)[i] = static_cast<float>(c);
    if (h_conf != nullptr) h_conf->observe(c);
  };
  // Fallbacks are rare (starved neighborhoods), so one shared atomic
  // counter costs nothing measurable across workers.
  std::atomic<std::size_t> fallbacks{0};

  // Each node writes only its own flag and confidence slot, and gathers
  // into its worker's scratch arena: `seen` epoch-marks visited nodes (the
  // allocation-free equivalent of a per-node unordered_set — see
  // common/epoch_map.hpp) and `gather` reuses its capacity across nodes.
  // Member order is identical to the naive gather, though emptiness is
  // order-independent anyway, so flags do not depend on `threads`.
  parallel_for(
      n,
      [&](std::size_t idx) {
        const auto i = static_cast<NodeId>(idx);
        if (run_mask != nullptr && (*run_mask)[i] == 0) return;
        if (alive != nullptr && (*alive)[i] == 0) {
          flags[i] = 0;  // crashed: no claim
          if (want_conf) (*confidence)[i] = 0.0f;
          return;
        }
        UbfScratch& scratch = local_scratch();
        std::vector<Vec3>& coords = scratch.gather;
        EpochSlotMap& seen = scratch.seen;
        seen.reset_universe(n);
        seen.clear();
        coords.clear();
        coords.push_back(network_->position(i));
        seen.insert(i, 0);
        for (NodeId v : network_->neighbors(i)) {
          if (alive != nullptr && (*alive)[v] == 0) continue;
          coords.push_back(network_->position(v));
          seen.insert(v, 0);
        }
        const std::size_t witness_count = coords.size();
        if (witness_count < 4) {
          flags[i] = config_.degenerate_is_boundary ? 1 : 0;
          set_conf(i, config_.degenerate_is_boundary ? 0.5 : 0.0);
          ++fallbacks;
          return;
        }
        if (two_hop) {
          // Exact two-hop membership: neighbors of neighbors, minus the
          // one-hop set and i itself, deduplicated.
          for (NodeId j : network_->neighbors(i)) {
            if (alive != nullptr && (*alive)[j] == 0) continue;
            for (NodeId u : network_->neighbors(j)) {
              if (alive != nullptr && (*alive)[u] == 0) continue;
              if (seen.insert(u, 0)) coords.push_back(network_->position(u));
            }
          }
        }
        UbfNodeDiagnostics diag;
        if (want_conf) {
          const std::size_t votes =
              count_empty_balls(coords, 0, witness_count, conf_cap,
                                /*coord_uncertainty=*/0.0, &diag);
          flags[i] = votes >= config_.min_empty_balls ? 1 : 0;
          set_conf(i, vote_confidence(votes, config_.min_empty_balls));
        } else {
          flags[i] = test_node(coords, 0, witness_count, &diag,
                               /*coord_uncertainty=*/0.0)
                         ? 1
                         : 0;
        }
        if (h_balls != nullptr) {
          h_balls->observe(static_cast<double>(diag.balls_tested));
        }
      },
      threads == 0 ? default_threads() : threads);
  if (frame_fallbacks != nullptr) *frame_fallbacks = fallbacks.load();
}

}  // namespace ballfit::core
