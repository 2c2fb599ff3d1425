#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "net/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ballfit::core {

namespace {

/// FNV-1a accumulator for stage fingerprints. Doubles are mixed by bit
/// pattern, so a fingerprint match means the inputs were byte-identical —
/// exactly the contract the bit-identity guarantee needs.
class Fingerprint {
 public:
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u64(v ? 1u : 0u); }
  void flags(const std::vector<bool>& f) {
    u64(f.size());
    std::uint64_t acc = 0;
    int bits = 0;
    for (const bool x : f) {
      acc = (acc << 1) | (x ? 1u : 0u);
      if (++bits == 64) {
        u64(acc);
        acc = 0;
        bits = 0;
      }
    }
    if (bits > 0) u64(acc);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Every UbfConfig field the per-node ball test reads, except the
/// degenerate vote — that one only reaches nodes without a usable frame,
/// which join every partial run, so it lives in the exact-hit key only.
void mix_ubf_core(Fingerprint& fp, const UbfConfig& c) {
  fp.f64(c.epsilon);
  fp.f64(c.radius_override);
  fp.f64(c.inside_tolerance);
  fp.f64(c.two_hop_inside_margin);
  fp.f64(c.measurement_error_hint);
  fp.f64(c.noise_margin_factor);
  fp.f64(c.noise_margin_cap);
  fp.u64(c.min_empty_balls);
  fp.f64(c.stress_gate_factor);
  fp.f64(c.stress_gate_floor);
  fp.boolean(c.cross_verify);
  fp.u64(c.verify_pool);
  fp.u64(c.scope == UbfConfig::EmptinessScope::kTwoHop ? 1u : 0u);
}

/// Every LocalizerConfig field. The whole config keys the Measure artifact
/// (the localizer object embeds it), so cached frames can never mix
/// equivalence tiers or optimization settings.
void mix_localizer_config(Fingerprint& fp,
                          const localization::LocalizerConfig& c) {
  fp.boolean(c.complete_missing_pairs);
  fp.f64(c.missing_pair_fallback);
  fp.u64(static_cast<std::uint64_t>(c.smacof_sweeps));
  fp.u64(static_cast<std::uint64_t>(c.mdsmap_sweeps));
  fp.u64(static_cast<std::uint64_t>(c.smacof_restarts));
  fp.u64(c.restart_seed);
  fp.boolean(c.topk_mds);
  fp.u64(c.topk_mds_threshold);
  fp.boolean(c.sparse_smacof);
  fp.boolean(c.use_edge_cache);
  fp.u64(static_cast<std::uint64_t>(c.tier));
  fp.boolean(c.warm_start);
  fp.boolean(c.adaptive_sweeps);
  fp.boolean(c.blocked_smacof);
  fp.f64(c.adaptive_floor);
  fp.u64(static_cast<std::uint64_t>(c.plateau_sweeps));
  fp.f64(c.plateau_rel_tol);
  fp.f64(c.plateau_guard);
  fp.u64(static_cast<std::uint64_t>(c.stress_stride));
  fp.u64(static_cast<std::uint64_t>(c.mds_eigen_iters));
  fp.f64(c.mds_eigen_tol);
  fp.f64(c.warm_accept_factor);
  fp.u64(c.warm_min_anchors);
  fp.f64(c.warm_min_coverage);
  fp.u64(c.batch_frames);
}

std::size_t count_marks(const std::vector<char>& mask) {
  return mask.size() - static_cast<std::size_t>(
                           std::count(mask.begin(), mask.end(), char{0}));
}

void note_stage(const char* stage, const char* kind) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter(std::string("session.") + stage + "." + kind)
      .add(1);
}

// Per-stage RNG stream tags: each flood stage gets its own fresh
// channel-only fault model, so every protocol artifact is a pure function
// of (inputs, knobs, channel fingerprint) — never of how many stages ran
// before it. The tags keep the two streams decorrelated under one seed.
constexpr std::uint64_t kIffStreamTag = 0x1ff00d5ull;
constexpr std::uint64_t kGroupStreamTag = 0x6e0097ull;

/// The loss/duplication channel of `config`, with every crash mechanism
/// stripped (crashes act through the session alive-mask instead) and the
/// seed re-keyed for one stage's stream.
sim::FaultConfig channel_config(const sim::FaultConfig& config,
                                std::uint64_t stage_tag) {
  sim::FaultConfig channel;
  channel.drop_probability = config.drop_probability;
  channel.link_loss_max = config.link_loss_max;
  channel.duplicate_probability = config.duplicate_probability;
  std::uint64_t s = config.seed ^ stage_tag;
  channel.seed = splitmix64(s);
  return channel;
}

/// Requires a duplicate-free id list (the delta validation contract).
void require_unique(std::vector<net::NodeId> ids, const char* what) {
  std::sort(ids.begin(), ids.end());
  BALLFIT_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                  std::string("NetworkDelta: duplicate node id in ") + what);
}

}  // namespace

DetectionSession::DetectionSession(const net::Network& network)
    : network_(&network),
      alive_(network.num_nodes(), 1),
      num_alive_(network.num_nodes()),
      fault_dead_(network.num_nodes(), 0),
      frames_dirty_(network.num_nodes(), 0),
      ubf_dirty_(network.num_nodes(), 0) {}

DetectionSession::DetectionSession(net::Network& network)
    : DetectionSession(static_cast<const net::Network&>(network)) {
  mutable_network_ = &network;
}

DetectionSession::DetectionSession(net::Network& network,
                                   std::vector<char> work)
    : DetectionSession(network) {
  BALLFIT_REQUIRE(work.empty() || work.size() == network.num_nodes(),
                  "work set must be empty or sized num_nodes");
  work_ = std::move(work);
}

void DetectionSession::apply(const NetworkDelta& delta) {
  const std::size_t n = network_->num_nodes();

  // --- Validate the whole delta before mutating anything, so a rejected
  // delta leaves the session (and the network) untouched.
  for (const net::NodeId v : delta.crashed) {
    BALLFIT_REQUIRE(v < n, "NetworkDelta: crashed node id out of range");
    BALLFIT_REQUIRE(alive_[v] != 0,
                    "NetworkDelta: node " + std::to_string(v) +
                        " is already dead — cannot crash it again");
  }
  for (const net::NodeId v : delta.revived) {
    BALLFIT_REQUIRE(v < n, "NetworkDelta: revived node id out of range");
    BALLFIT_REQUIRE(alive_[v] == 0,
                    "NetworkDelta: node " + std::to_string(v) +
                        " is alive — cannot revive it");
  }
  require_unique(delta.crashed, "crashed");
  require_unique(delta.revived, "revived");
  {
    std::vector<net::NodeId> moved_ids;
    moved_ids.reserve(delta.moved.size());
    for (const net::NodeMove& m : delta.moved) {
      BALLFIT_REQUIRE(m.node < n, "NetworkDelta: moved node id out of range");
      moved_ids.push_back(m.node);
    }
    require_unique(std::move(moved_ids), "moved");
  }
  BALLFIT_REQUIRE(delta.moved.empty() || mutable_network_ != nullptr,
                  "NetworkDelta contains moves but the session observes a "
                  "const network — construct the session with a mutable "
                  "net::Network to enable node motion");
  if (delta.empty()) return;

  // A frame's membership is a subset of its owner's two-hop neighborhood,
  // so only frames within two hops of a changed node can change; a node's
  // UBF flag additionally reads its one-hop witnesses' frames, adding one
  // hop. The UBF marks keep the hop distance, so true-coordinates runs,
  // whose flags read only two hops, re-test the inner part alone. The
  // reach is computed on the full adjacency (conservative
  // superset of any masked reach). A move changes which nodes are within
  // reach at all, so its dirty set is marked on BOTH the pre-move and the
  // post-move adjacency: every changed frame input involves the moved node
  // under one of the two.
  std::vector<net::NodeId> seeds;
  seeds.reserve(delta.crashed.size() + delta.revived.size() +
                delta.moved.size());
  if (!delta.moved.empty()) {
    for (const net::NodeMove& m : delta.moved) seeds.push_back(m.node);
    if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
    if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);
    mutable_network_->apply_moves(delta.moved);
    ++topology_version_;
    measure_stale_ = true;
  }
  seeds.insert(seeds.end(), delta.crashed.begin(), delta.crashed.end());
  seeds.insert(seeds.end(), delta.revived.begin(), delta.revived.end());
  if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
  if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);

  for (const net::NodeId v : delta.crashed) {
    alive_[v] = 0;
    --num_alive_;
  }
  for (const net::NodeId v : delta.revived) {
    alive_[v] = 1;
    ++num_alive_;
    // A user revive of a fault casualty clears the attribution: the node
    // stays up until the fault clock advances or the model is re-synced.
    fault_dead_[v] = 0;
  }
  ++alive_epoch_;
  masked_ = num_alive_ < n;

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("session.delta.crashed").add(delta.crashed.size());
    reg.counter("session.delta.revived").add(delta.revived.size());
    reg.counter("session.delta.moved").add(delta.moved.size());
  }
}

void DetectionSession::apply_alive_diff(
    const std::vector<net::NodeId>& crashed,
    const std::vector<net::NodeId>& revived) {
  if (crashed.empty() && revived.empty()) return;
  std::vector<net::NodeId> seeds;
  seeds.reserve(crashed.size() + revived.size());
  seeds.insert(seeds.end(), crashed.begin(), crashed.end());
  seeds.insert(seeds.end(), revived.begin(), revived.end());
  if (frames_valid_) net::mark_k_hop(*network_, seeds, 2, frames_dirty_);
  if (ubf_valid_) net::mark_k_hop(*network_, seeds, 3, ubf_dirty_);
  for (const net::NodeId v : crashed) {
    alive_[v] = 0;
    --num_alive_;
  }
  for (const net::NodeId v : revived) {
    alive_[v] = 1;
    ++num_alive_;
  }
  ++alive_epoch_;
  masked_ = num_alive_ < network_->num_nodes();
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("session.delta.crashed").add(crashed.size());
    reg.counter("session.delta.revived").add(revived.size());
  }
}

void DetectionSession::ensure_fault_model(const sim::FaultConfig& config) {
  Fingerprint fp;
  fp.f64(config.drop_probability);
  fp.f64(config.link_loss_max);
  fp.f64(config.duplicate_probability);
  fp.f64(config.crash_fraction);
  fp.f64(config.crash_probability);
  // Schedule identity is order-stable: the model applies every entry whose
  // round arrives regardless of list order, so permuted/duplicated entries
  // describe the same fault stream and must fingerprint identically.
  auto schedule = config.crash_at_round;
  std::sort(schedule.begin(), schedule.end());
  schedule.erase(std::unique(schedule.begin(), schedule.end()),
                 schedule.end());
  fp.u64(schedule.size());
  for (const auto& [v, r] : schedule) {
    fp.u64(v);
    fp.u64(r);
  }
  fp.u64(config.seed);
  fp.u64(network_->num_nodes());
  if (fault_model_.has_value() && fault_cfg_fp_ == fp.value()) return;

  // New fault stream: fresh model (crash clock restarts at round 0).
  fault_model_.emplace(config, network_->num_nodes());
  fault_cfg_fp_ = fp.value();
  Fingerprint channel;
  channel.u64(config.seed);
  channel.f64(config.drop_probability);
  channel.f64(config.link_loss_max);
  channel.f64(config.duplicate_probability);
  fault_channel_fp_ = channel.value();
}

void DetectionSession::release_fault_model() {
  if (!fault_model_.has_value()) return;
  // Fault casualties do not outlive their model: a reliable run sees the
  // network the user deltas alone describe.
  std::vector<net::NodeId> revived;
  for (net::NodeId v = 0; v < fault_dead_.size(); ++v) {
    if (fault_dead_[v] != 0) {
      revived.push_back(v);
      fault_dead_[v] = 0;
    }
  }
  fault_model_.reset();
  fault_cfg_fp_ = 0;
  fault_channel_fp_ = 0;
  apply_alive_diff({}, revived);
}

NetworkDelta DetectionSession::sync_fault_state() {
  NetworkDelta delta = delta_from_fault_state(*this, *fault_model_);
  // The model only speaks for its own casualties: a node the user crashed
  // is "up" as far as the model knows, but must stay down here.
  std::erase_if(delta.revived, [&](net::NodeId v) {
    return fault_dead_[v] == 0;
  });
  for (const net::NodeId v : delta.crashed) fault_dead_[v] = 1;
  for (const net::NodeId v : delta.revived) fault_dead_[v] = 0;
  apply_alive_diff(delta.crashed, delta.revived);
  return delta;
}

NetworkDelta DetectionSession::advance_faults(std::size_t rounds) {
  BALLFIT_REQUIRE(fault_model_.has_value(),
                  "advance_faults: no fault model installed — run with an "
                  "active fault config first (a reliable run uninstalls it)");
  for (std::size_t i = 0; i < rounds; ++i) fault_model_->advance_round();
  return sync_fault_state();
}

void DetectionSession::run_measure_stage(const PipelineConfig& config) {
  // --- Measure: noise model + localizer (includes the per-edge
  // measurement cache). Keyed on (measurement_error, noise_seed) plus the
  // full localizer config — the localizer object embeds it, and every
  // downstream frame artifact chains off `measure_version_`, so runs at
  // different equivalence tiers (or any other localizer setting) can never
  // share cached frames.
  Fingerprint fp;
  fp.f64(config.measurement_error);
  fp.u64(config.noise_seed);
  mix_localizer_config(fp, config.localizer);
  if (measure_valid_ && measure_fp_ == fp.value() && !measure_stale_) {
    ++stats_.measure.cache_hits;
    note_stage("measure", "cache_hits");
  } else if (measure_valid_ && measure_fp_ == fp.value()) {
    // Same noise law, moved geometry: re-materialize the per-edge cache
    // against the rebuilt CSR adjacency. The noise draw is keyed on
    // (seed, node-id pair), so every unmoved pair measures bit-identical
    // — measure_version_ stays put and frames outside the move's dirty
    // set remain valid.
    BALLFIT_SPAN("measurement");
    model_.emplace(*network_, config.measurement_error, config.noise_seed);
    localizer_.emplace(*network_, *model_, config.localizer);
    measure_stale_ = false;
    ++stats_.measure.partial_runs;
    note_stage("measure", "partial_runs");
  } else {
    BALLFIT_SPAN("measurement");
    model_.emplace(*network_, config.measurement_error, config.noise_seed);
    localizer_.emplace(*network_, *model_, config.localizer);
    measure_fp_ = fp.value();
    measure_valid_ = true;
    measure_stale_ = false;
    ++measure_version_;  // downstream keys reference the new artifact
    ++stats_.measure.full_runs;
    note_stage("measure", "full_runs");
  }
}

void DetectionSession::refresh_frame_work() {
  if (frame_work_valid_ && frame_work_topology_ == topology_version_) return;
  const std::size_t n = network_->num_nodes();
  std::vector<net::NodeId> seeds;
  for (net::NodeId i = 0; i < n; ++i) {
    if (work_[i] != 0) seeds.push_back(i);
  }
  std::vector<char> next(n, 0);
  net::mark_k_hop(*network_, seeds, 1, next);
  // A move can bring a new witness next to a work node. Its frame was
  // never embedded (or is stale), so the next partial rebuild covers it.
  if (frame_work_valid_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (next[i] != 0 && frame_work_[i] == 0) frames_dirty_[i] = 1;
    }
  }
  frame_work_ = std::move(next);
  frame_work_topology_ = topology_version_;
  frame_work_valid_ = true;
}

void DetectionSession::run_localize_stage(const UbfConfig& ubf_config,
                                          unsigned threads, bool restricted) {
  // --- Localize: one frame per node, or on a restricted run one per node
  // of `frame_work_` (placeholders elsewhere — no test reads them). Keyed
  // on (measure artifact, scope, restriction) plus the alive epoch; an
  // epoch mismatch with a matching key re-embeds the dirty neighborhoods
  // only.
  const std::vector<char>* alive_mask = masked_ ? &alive_ : nullptr;
  const bool two_hop = ubf_config.scope == UbfConfig::EmptinessScope::kTwoHop;
  if (restricted) refresh_frame_work();
  std::uint64_t frames_key = 0;
  {
    Fingerprint fp;
    fp.u64(measure_version_);
    fp.boolean(two_hop);
    fp.boolean(restricted);
    frames_key = fp.value();
  }
  if (frames_valid_ && frames_key_ == frames_key &&
      frames_epoch_ == alive_epoch_) {
    ++stats_.localize.cache_hits;
    note_stage("localize", "cache_hits");
    return;
  }
  BALLFIT_SPAN("mds_frames");
  const localization::FrameScope scope =
      two_hop ? localization::FrameScope::kTwoHop
              : localization::FrameScope::kOneHop;
  // Same key + older epoch: the frames differ only inside the dirty
  // neighborhoods accumulated by apply(). Each frame is a pure function
  // of (network, model, scope, alive), so the partial rebuild is
  // bit-identical to a full one.
  if (frames_valid_ && frames_key_ == frames_key) {
    if (restricted) {
      for (std::size_t i = 0; i < frames_dirty_.size(); ++i) {
        if (frame_work_[i] == 0) frames_dirty_[i] = 0;
      }
    }
    stats_.last_frames_rebuilt = count_marks(frames_dirty_);
    // A partial rebuild refreshes only the dirty frames, so its effort
    // stats describe a fragment; fold them into the artifact's totals
    // rather than replacing them.
    localization::FrameBuildStats partial;
    localization::build_all_frames(*localizer_, scope, frames_, threads,
                                   alive_mask, &frames_dirty_, &partial);
    loc_stats_.merge(partial);
    ++stats_.localize.partial_runs;
    note_stage("localize", "partial_runs");
    if (obs::enabled()) {
      obs::Registry::global()
          .gauge("session.frames_rebuilt")
          .set(static_cast<double>(stats_.last_frames_rebuilt));
    }
  } else {
    loc_stats_ = {};
    if (restricted) {
      frames_.assign(network_->num_nodes(), localization::LocalFrame{});
    } else {
      frames_.clear();
    }
    localization::build_all_frames(*localizer_, scope, frames_, threads,
                                   alive_mask,
                                   restricted ? &frame_work_ : nullptr,
                                   &loc_stats_);
    ++stats_.localize.full_runs;
    note_stage("localize", "full_runs");
  }
  frames_key_ = frames_key;
  frames_epoch_ = alive_epoch_;
  frames_valid_ = true;
  ++frames_version_;
  std::fill(frames_dirty_.begin(), frames_dirty_.end(), 0);
}

void DetectionSession::run_ubf_stages(const PipelineConfig& config,
                                      const UbfConfig& ubf_config,
                                      unsigned threads, bool restricted,
                                      PipelineResult& result) {
  const std::size_t n = network_->num_nodes();
  const std::vector<char>* alive_mask = masked_ ? &alive_ : nullptr;
  // True coordinates need no Measure/Localize artifacts: the oracle reads
  // the positions directly. Both coordinate sources share the UBF artifact
  // logic below — keys, partial re-tests and the degenerate-vote rule.
  const bool true_coords = config.use_true_coordinates;
  if (!true_coords) run_measure_stage(config);
  BALLFIT_SPAN("ubf");
  if (!true_coords) {
    // kFast warm frames depend on the whole build schedule, so only the
    // pure-per-frame tiers can embed the witnesses' frames alone.
    run_localize_stage(ubf_config, threads,
                       restricted && !config.localizer.warm_start_active());
  }
  const std::vector<char>* work = restricted ? &work_ : nullptr;

  // --- UBF ball test (+ witness cross-verification on frames).
  // Core key: everything the per-node decision reads except the
  // degenerate vote and the per-node inputs, which dirty tracking covers.
  Fingerprint core;
  if (true_coords) {
    core.u64(2);  // true-coordinates artifact tag
  } else {
    core.u64(1);  // frame-path artifact tag
    core.u64(frames_key_);
  }
  mix_ubf_core(core, ubf_config);
  // With escalation on, confidence stops being pure telemetry — the effort
  // planner reads it — so the artifact key must distinguish escalate-on
  // builds (confidence always collected, full-sized) from escalate-off
  // ones (obs-gated, possibly absent). Keyed in the *core* key so an
  // escalate-on run never partial-resumes from a confidence-less artifact.
  // True-coordinates runs never escalate.
  const bool escalating = !true_coords && config.escalate.enabled;
  core.boolean(escalating);
  // A restricted artifact holds verdicts for the work set only, so it
  // must never seed a partial run that reads the rest.
  core.boolean(restricted);
  // Full key: the core plus the degenerate vote and the version of the
  // per-node inputs — the frames (which follow the alive set) or, on true
  // coordinates, the alive set and positions themselves.
  Fingerprint full;
  full.u64(core.value());
  full.boolean(ubf_config.degenerate_is_boundary);
  full.u64(true_coords ? alive_epoch_ : frames_version_);
  const bool hit = ubf_valid_ && ubf_full_fp_ == full.value();
  const bool partial = !hit && ubf_valid_ && ubf_core_fp_ == core.value() &&
                       ubf_flags_.size() == n;

  // Alive nodes the ball test cannot run on vote `degenerate_is_boundary`
  // instead: no usable frame, or fewer than 3 alive neighbors on true
  // coordinates. They are the fallbacks — recounted every run, so cache
  // hits report what a fresh run would, and counted over the work set,
  // whose verdicts are the ones read — and the only readers of the
  // degenerate vote, which the core key deliberately omits, so every
  // partial run re-tests them.
  const auto degenerate = [&](net::NodeId i) {
    if (!true_coords) return !frames_[i].ok;
    std::size_t alive_neighbors = 0;
    for (const net::NodeId v : network_->neighbors(i)) {
      if (alive_[v] != 0 && ++alive_neighbors == 3) return false;
    }
    return true;
  };
  const auto in_run = [&](net::NodeId i) {
    return work == nullptr || (*work)[i] != 0;
  };
  // `tested` counts the alive nodes a full run tests, then (partial runs)
  // the alive nodes of the re-test mask.
  frame_fallbacks_ = 0;
  std::size_t tested = 0;
  for (net::NodeId i = 0; i < n; ++i) {
    if (alive_[i] == 0 || !in_run(i)) continue;
    ++tested;
    if (!degenerate(i)) continue;
    if (work_.empty() || work_[i] != 0) ++frame_fallbacks_;
    if (partial) ubf_dirty_[i] = 1;
  }

  // The partial run mask: dirty marks within the reach a flag reads —
  // 3 hops on the frame path, 2 on true coordinates (marks are 1 + hop
  // distance) — and inside the run set.
  if (partial) {
    const char max_mark = true_coords ? 3 : 4;
    tested = 0;
    for (net::NodeId i = 0; i < n; ++i) {
      const char m = ubf_dirty_[i];
      ubf_dirty_[i] = m != 0 && m <= max_mark && in_run(i) ? 1 : 0;
      tested += ubf_dirty_[i] != 0 && alive_[i] != 0;
    }
  }
  stats_.last_nodes_retested = hit ? 0 : tested;

  if (hit) {
    ++stats_.ubf.cache_hits;
    note_stage("ubf", "cache_hits");
  } else {
    const UnitBallFitting ubf(*network_, ubf_config);
    // Obs-gated confidence companion — forced on when the Escalate stage
    // will read it. A partial run can only update the entries it re-tests,
    // so it needs a full-sized carry-over; when the previous artifact had
    // no confidence (obs was off), start from zeros — the untested
    // remainder reads 0 ("not scored"), never garbage. (The escalate bit
    // lives in the core key, so an escalate-on partial never resumes from
    // a confidence-less artifact.)
    std::vector<float>* conf_out = nullptr;
    if (obs::enabled() || escalating) {
      if (ubf_confidence_.size() != n) ubf_confidence_.assign(n, 0.0f);
      conf_out = &ubf_confidence_;
    } else {
      ubf_confidence_.clear();
    }
    // Partial: re-test the dirty neighborhoods plus the degenerate nodes
    // (the mask built above). Full: every node of the run set.
    const std::vector<char>* run_mask = partial ? &ubf_dirty_ : work;
    if (!partial) ubf_flags_.assign(n, 0);
    if (true_coords) {
      ubf.detect_with_true_coordinates(ubf_flags_, alive_mask, run_mask,
                                       conf_out, nullptr, threads);
    } else {
      ubf.update_flags_on_frames(frames_, ubf_flags_, alive_mask, run_mask,
                                 threads, conf_out);
    }
    if (partial) {
      ++stats_.ubf.partial_runs;
      note_stage("ubf", "partial_runs");
      if (obs::enabled()) {
        obs::Registry::global()
            .gauge("session.nodes_retested")
            .set(static_cast<double>(stats_.last_nodes_retested));
      }
    } else {
      ++stats_.ubf.full_runs;
      note_stage("ubf", "full_runs");
    }
    ubf_candidates_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      ubf_candidates_[i] = ubf_flags_[i] != 0;
    }
    ubf_full_fp_ = full.value();
    ubf_core_fp_ = core.value();
    ubf_valid_ = true;
    std::fill(ubf_dirty_.begin(), ubf_dirty_.end(), 0);
  }
  result.ubf_candidates = ubf_candidates_;
  result.ubf_confidence = ubf_confidence_;
  result.frame_fallbacks = frame_fallbacks_;
  if (!true_coords) result.localize_stats = loc_stats_;
}

void DetectionSession::run_escalate_stage(const PipelineConfig& config,
                                          const UbfConfig& ubf_config,
                                          unsigned threads,
                                          PipelineResult& result) {
  if (!config.escalate.enabled || config.use_true_coordinates) {
    esc_valid_ = false;
    return;
  }
  const std::size_t n = network_->num_nodes();

  // Everything the stage reads is covered by the UBF exact-hit key: the
  // frames via frames_version_, the confidence via the UBF knobs (and the
  // escalate bit in the core key guarantees it was collected), the alive
  // set via the frame rebuild. Only the escalation knobs are added.
  Fingerprint fp;
  fp.u64(ubf_full_fp_);
  fp.f64(config.escalate.margin);
  fp.f64(config.escalate.relax);
  if (esc_valid_ && esc_fp_ == fp.value()) {
    ++stats_.escalate.cache_hits;
    note_stage("escalate", "cache_hits");
  } else {
    BALLFIT_SPAN("escalate");
    const UnitBallFitting ubf(*network_, ubf_config);
    const std::vector<char>* alive_mask = masked_ ? &alive_ : nullptr;

    const EffortPlan plan = build_effort_plan(ubf_confidence_, frames_,
                                              alive_mask, ubf,
                                              config.escalate);
    esc_stats_ = {};
    esc_stats_.planned_cheap = plan.count(EffortClass::kCheap);
    esc_stats_.planned_default = plan.count(EffortClass::kDefault);
    esc_stats_.planned_full = plan.count(EffortClass::kFull);

    // Stress-gated nodes, recorded against the *first-pass* frames: these
    // abstained (confidence 0), so the fold-back below always adopts their
    // escalated verdict — the kFull re-embed is exactly their rescue path.
    std::vector<char> gated(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (frames_[i].ok && !ubf.frame_reliable(frames_[i].stress_rms)) {
        gated[i] = 1;
      }
    }

    std::vector<net::NodeId> seeds;
    for (std::size_t i = 0; i < n; ++i) {
      if (alive_[i] != 0 && plan.classes[i] == EffortClass::kFull) {
        seeds.push_back(static_cast<net::NodeId>(i));
      }
    }
    esc_stats_.escalated_nodes = seeds.size();

    // Start from the first-pass artifact; the masked re-runs below rewrite
    // only the retested entries. Confidence is full-sized by the
    // escalate-on contract of run_ubf_stages.
    esc_flags_ = ubf_flags_;
    esc_confidence_ = ubf_confidence_;

    if (!seeds.empty()) {
      // A marginal node's own embedding is the dominant input to its ball
      // test (the ball centers and the stress gate both read it), so the
      // rebuild set is exactly the seed frames, re-embedded at kFull. A
      // rebuilt frame influences the ball test of every node that reads
      // it — the owner plus its one-hop witnesses — hence retest =
      // rebuild reach + 1 hop, the Localize/UBF dirty-set discipline.
      // Wider rebuild reaches were measured and rejected: on fig1@0.35 a
      // 1-hop/2-hop pair spends 2.7x the total escalated sweeps (81% vs
      // 32% of a flat kFull run) with no accuracy gain, because witness
      // frames re-run at kFull land in the same basin they left.
      std::vector<char> rebuild(n, 0);
      std::vector<char> retest(n, 0);
      net::mark_k_hop(*network_, seeds, 0, rebuild);
      net::mark_k_hop(*network_, seeds, 1, retest);
      esc_stats_.frames_rebuilt = count_marks(rebuild);
      esc_stats_.nodes_retested = count_marks(retest);

      // One effort vector serves both kernels: kFull on the whole retest
      // reach (superset of the rebuild set), so rebuilt frames run at full
      // budget and every retested node gets the doubled vote pool.
      std::vector<localization::EffortClass> effort(
          n, localization::EffortClass::kDefault);
      for (std::size_t i = 0; i < n; ++i) {
        if (retest[i] != 0) effort[i] = localization::EffortClass::kFull;
      }

      // The escalated frames are scratch: the cached Localize artifact must
      // keep matching (frames_key_, frames_version_), so save the base
      // frames and restore them after the re-test.
      std::vector<std::pair<net::NodeId, localization::LocalFrame>> saved;
      saved.reserve(esc_stats_.frames_rebuilt);
      for (std::size_t i = 0; i < n; ++i) {
        if (rebuild[i] != 0) {
          saved.emplace_back(static_cast<net::NodeId>(i), frames_[i]);
        }
      }

      const bool two_hop =
          ubf_config.scope == UbfConfig::EmptinessScope::kTwoHop;
      const localization::FrameScope scope =
          two_hop ? localization::FrameScope::kTwoHop
                  : localization::FrameScope::kOneHop;
      localization::FrameBuildStats esc_build;
      localization::build_all_frames(*localizer_, scope, frames_, threads,
                                     alive_mask, &rebuild, &esc_build,
                                     &effort);
      esc_stats_.escalation_sweeps = esc_build.sweeps_executed;
      // Savings estimate vs. a flat kFull build: every alive frame at the
      // full configured budget, minus what the first pass and the
      // escalation actually spent. An estimate (a flat run may restart),
      // floored at zero.
      const std::uint64_t per_frame_budget = static_cast<std::uint64_t>(
          two_hop ? config.localizer.mdsmap_sweeps
                  : config.localizer.smacof_sweeps);
      const std::uint64_t flat_full = num_alive_ * per_frame_budget;
      const std::uint64_t spent =
          loc_stats_.sweeps_executed + esc_build.sweeps_executed;
      esc_stats_.sweeps_saved_vs_full = flat_full > spent ? flat_full - spent
                                                          : 0;

      ubf.update_flags_on_frames(frames_, esc_flags_, alive_mask, &retest,
                                 threads, &esc_confidence_, &effort);

      // Fold back with the monotonicity rule: adopt the escalated verdict
      // only when it is at least as decisive as the first pass (distance
      // from the 0.5 threshold), except stress-gated nodes, which always
      // adopt. Reverted nodes keep their first-pass bits exactly.
      for (std::size_t i = 0; i < n; ++i) {
        if (retest[i] == 0 || alive_[i] == 0) continue;
        const double base_d =
            std::abs(static_cast<double>(ubf_confidence_[i]) - 0.5);
        const double esc_d =
            std::abs(static_cast<double>(esc_confidence_[i]) - 0.5);
        if (gated[i] != 0 || esc_d >= base_d) {
          ++esc_stats_.adopted;
          if (esc_flags_[i] != ubf_flags_[i]) ++esc_stats_.flags_changed;
          esc_stats_.confidence_delta_sum += std::abs(
              static_cast<double>(esc_confidence_[i]) - ubf_confidence_[i]);
          ++esc_stats_.confidence_delta_count;
        } else {
          esc_flags_[i] = ubf_flags_[i];
          esc_confidence_[i] = ubf_confidence_[i];
          ++esc_stats_.kept_first_pass;
        }
      }

      for (auto& [id, frame] : saved) frames_[id] = std::move(frame);

      if (obs::enabled()) {
        obs::Histogram& h = obs::Registry::global().histogram(
            "effort.confidence_delta",
            {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5});
        for (std::size_t i = 0; i < n; ++i) {
          if (retest[i] != 0 && alive_[i] != 0) {
            h.observe(std::abs(static_cast<double>(esc_confidence_[i]) -
                               ubf_confidence_[i]));
          }
        }
      }
    }

    esc_candidates_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      esc_candidates_[i] = esc_flags_[i] != 0;
    }
    esc_fp_ = fp.value();
    esc_valid_ = true;
    ++stats_.escalate.full_runs;
    note_stage("escalate", "full_runs");
  }

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("effort.planned_cheap").add(esc_stats_.planned_cheap);
    reg.counter("effort.planned_default").add(esc_stats_.planned_default);
    reg.counter("effort.planned_full").add(esc_stats_.planned_full);
    reg.counter("effort.escalated_nodes").add(esc_stats_.escalated_nodes);
    reg.counter("effort.frames_rebuilt").add(esc_stats_.frames_rebuilt);
    reg.counter("effort.nodes_retested").add(esc_stats_.nodes_retested);
    reg.counter("effort.escalation_sweeps").add(esc_stats_.escalation_sweeps);
    reg.counter("effort.sweeps_saved_vs_full")
        .add(esc_stats_.sweeps_saved_vs_full);
    reg.counter("effort.flags_changed").add(esc_stats_.flags_changed);
    reg.counter("effort.adopted").add(esc_stats_.adopted);
    reg.counter("effort.kept_first_pass").add(esc_stats_.kept_first_pass);
  }

  result.ubf_candidates = esc_candidates_;
  result.ubf_confidence = esc_confidence_;
  result.effort = esc_stats_;
}

void DetectionSession::run_filter_stages(const PipelineConfig& config,
                                         bool faulted,
                                         const std::vector<bool>& candidates,
                                         const std::vector<float>& confidence,
                                         PipelineResult& result) {
  // --- IFF: whole-network flood over the candidate set (cheap relative
  // to localization; no partial variant). Keyed on the candidate flags,
  // the IFF knobs, the adjacency version (a move changes flood paths even
  // when the flags do not), and — under faults — the channel fingerprint
  // plus the retransmission count. A faulted execution runs under a fresh
  // stage-local fault model, so the artifact is a pure function of that
  // key regardless of what ran before it.
  {
    Fingerprint fp;
    fp.flags(candidates);
    fp.u64(config.iff.theta);
    fp.u64(config.iff.ttl);
    fp.boolean(config.iff.use_message_passing);
    fp.u64(topology_version_);
    fp.boolean(faulted);
    if (faulted) {
      fp.u64(fault_channel_fp_);
      fp.u64(config.flood_repeat);
    }
    if (iff_valid_ && iff_fp_ == fp.value()) {
      ++stats_.iff.cache_hits;
      note_stage("iff", "cache_hits");
    } else {
      BALLFIT_SPAN("iff");
      sim::ProtocolOptions proto{};
      std::optional<sim::FaultModel> stage_faults;
      if (faulted) {
        stage_faults.emplace(channel_config(*config.faults, kIffStreamTag),
                             network_->num_nodes());
        proto.faults = &*stage_faults;
        proto.repeat = config.flood_repeat;
      }
      iff_cost_ = {};
      std::vector<std::uint32_t>* counts_out =
          obs::enabled() ? &iff_counts_ : nullptr;
      if (counts_out == nullptr) iff_counts_.clear();
      boundary_ = iff_filter(*network_, candidates, config.iff,
                             &iff_cost_, proto, counts_out);
      iff_fault_stats_ = stage_faults ? stage_faults->stats()
                                      : sim::FaultStats{};
      iff_fp_ = fp.value();
      iff_valid_ = true;
      ++stats_.iff.full_runs;
      note_stage("iff", "full_runs");
    }
    result.boundary = boundary_;
    result.iff_cost = iff_cost_;
    if (faulted) {
      result.fault_stats.dropped += iff_fault_stats_.dropped;
      result.fault_stats.duplicated += iff_fault_stats_.duplicated;
    }
  }

  // --- Grouping (optional stage). Keyed like IFF: the boundary flags, the
  // message-passing switch, the adjacency version, and the fault channel.
  if (config.group) {
    Fingerprint fp;
    fp.flags(boundary_);
    fp.boolean(config.iff.use_message_passing);
    fp.u64(topology_version_);
    fp.boolean(faulted);
    if (faulted) {
      fp.u64(fault_channel_fp_);
      fp.u64(config.flood_repeat);
    }
    if (group_valid_ && group_fp_ == fp.value()) {
      ++stats_.group.cache_hits;
      note_stage("group", "cache_hits");
    } else {
      BALLFIT_SPAN("grouping");
      sim::ProtocolOptions proto{};
      std::optional<sim::FaultModel> stage_faults;
      if (faulted) {
        stage_faults.emplace(channel_config(*config.faults, kGroupStreamTag),
                             network_->num_nodes());
        proto.faults = &*stage_faults;
        proto.repeat = config.flood_repeat;
      }
      group_cost_ = {};
      groups_ = group_boundaries(*network_, boundary_,
                                 config.iff.use_message_passing,
                                 &group_cost_, proto);
      group_fault_stats_ = stage_faults ? stage_faults->stats()
                                        : sim::FaultStats{};
      group_fp_ = fp.value();
      group_valid_ = true;
      ++stats_.group.full_runs;
      note_stage("group", "full_runs");
    }
    result.groups = groups_;
    result.grouping_cost = group_cost_;
    if (faulted) {
      result.fault_stats.dropped += group_fault_stats_.dropped;
      result.fault_stats.duplicated += group_fault_stats_.duplicated;
    }

    // Per-boundary quality: cheap pure-function scoring over the cached
    // artifacts, recomputed whenever someone is observing. Components
    // whose inputs this run didn't produce (confidence/counts computed
    // under an earlier obs-off run and cached away) drop out gracefully.
    if (obs::enabled()) {
      result.group_quality = score_boundaries(
          groups_, config.iff.theta, confidence, iff_counts_);
      obs::Registry& reg = obs::Registry::global();
      obs::Histogram& h_quality = reg.histogram(
          "group.quality", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
      obs::Histogram& h_size = reg.histogram(
          "group.size", {10, 20, 50, 100, 200, 500, 1000, 2000});
      for (const BoundaryQuality& q : result.group_quality) {
        h_quality.observe(q.score);
        h_size.observe(static_cast<double>(q.size));
      }
    }
  }

  Fingerprint fp;
  fp.flags(result.boundary);
  fp.boolean(config.iff.use_message_passing);
  fp.boolean(config.group);
  // Downstream consumers (the surface stage) read node positions, so a
  // move must change the result identity even when the boundary set is
  // unchanged.
  fp.u64(topology_version_);
  result_fp_ = fp.value();
}

PipelineResult DetectionSession::run_candidates(const PipelineConfig& config) {
  const std::size_t n = network_->num_nodes();
  const unsigned threads =
      config.threads == 0 ? default_threads() : config.threads;

  // Fold the fault model's crash state into the alive mask before any
  // stage runs: crashes act through the same masked kernels as user
  // deltas, so faults and `apply` history compose in one engine. An inert
  // (all-zero) config is the reliable path — the hook alone must not
  // change any output bit.
  const bool faulted = config.faults.has_value() && config.faults->any();
  if (faulted) {
    ensure_fault_model(*config.faults);
    sync_fault_state();
  } else {
    release_fault_model();
  }

  // Nodes know their ranging error specification; the UBF emptiness slack
  // scales with it unless the caller already set a hint explicitly.
  UbfConfig ubf_config = config.ubf;
  if (ubf_config.measurement_error_hint == 0.0 &&
      !config.use_true_coordinates) {
    ubf_config.measurement_error_hint = config.measurement_error;
  }
  // A crashed or fault-injected topology gets a conservative degenerate
  // vote: a crash-starved neighborhood must not promote itself to
  // "boundary" by starvation alone.
  if (masked_ || faulted) ubf_config.degenerate_is_boundary = false;

  // The work set restricts every per-node loop unless escalation runs: its
  // effort plan reads confidence around the work nodes, so it keeps the
  // full work set (true-coordinates runs never escalate).
  const bool restricted =
      !work_.empty() &&
      (config.use_true_coordinates || !config.escalate.enabled);

  PipelineResult result;
  run_ubf_stages(config, ubf_config, threads, restricted, result);
  run_escalate_stage(config, ubf_config, threads, result);

  if (masked_) result.crashed_nodes = n - num_alive_;
  if (faulted) result.fault_stats.crashed = fault_model_->num_down();
  return result;
}

PipelineResult DetectionSession::run(const PipelineConfig& config) {
  BALLFIT_SPAN("pipeline");
  PipelineResult result = run_candidates(config);
  const bool faulted = config.faults.has_value() && config.faults->any();
  run_filter_stages(config, faulted, result.ubf_candidates,
                    result.ubf_confidence, result);

  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("pipeline.runs").add(1);
    reg.counter("pipeline.nodes").add(network_->num_nodes());
    reg.counter("pipeline.ubf_candidates").add(result.num_candidates());
    reg.counter("pipeline.boundary_nodes").add(result.num_boundary());
    reg.counter("pipeline.frame_fallbacks").add(result.frame_fallbacks);
    if (masked_) {
      reg.counter("pipeline.crashed_nodes").add(result.crashed_nodes);
    }
    if (faulted) {
      reg.counter("pipeline.dropped").add(result.fault_stats.dropped);
      reg.counter("pipeline.duplicated").add(result.fault_stats.duplicated);
    }
  }
  return result;
}

NetworkDelta delta_from_fault_state(const DetectionSession& session,
                                    const sim::FaultModel& faults) {
  const std::size_t n = session.network().num_nodes();
  BALLFIT_REQUIRE(faults.num_nodes() == n,
                  "fault model and session must cover the same network");
  NetworkDelta delta;
  for (net::NodeId v = 0; v < n; ++v) {
    const bool down = faults.is_down(v);
    if (down && session.is_alive(v)) {
      delta.crashed.push_back(v);
    } else if (!down && !session.is_alive(v)) {
      delta.revived.push_back(v);
    }
  }
  return delta;
}

}  // namespace ballfit::core
