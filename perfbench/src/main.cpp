/// \file main.cpp
/// The repository benchmark: runs one named workload from a seed, checks
/// its outputs against ground truth the benchmark computes itself, and
/// prints every metric as one JSON object on the last line of stdout.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Workloads (all on 4 worker threads):
///   paper_noisy_churn  Fig. 1 box-with-hole, scale 1.0 (~4.5k nodes), 20%
///                      ranging error: cold detection, mesh, 30-step churn
///                      soak on the same session.
///   paper_exact        the same network at 0% error (the zero-noise
///                      pathology): cold detection, mesh, 20-step soak.
///   scale_sharded      Fig. 1 sized to ~100k nodes on true coordinates
///                      through ShardedDetector: cold partition + detection,
///                      mesh, 6-step crash/revive soak through the detector.
///
/// --trace 0 runs whole rounds, each on its own network drawn from the
/// seed, until --seconds have passed and at least three rounds are done;
/// it reports medians over them. --trace 1 runs one pass that calls each
/// layer's public functions one by one (Measure, Localize, UBF, IFF,
/// Group, Mesh on 1 thread), records spans around them, checks that the
/// layer-by-layer flags equal the one-call and sharded paths, and reports
/// per-layer metrics; the spans are written to .bench_out/.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/grouping.hpp"
#include "core/iff.hpp"
#include "core/session.hpp"
#include "core/sharded.hpp"
#include "core/ubf.hpp"
#include "localization/local_frame.hpp"
#include "mesh/surface_builder.hpp"
#include "net/measurement.hpp"
#include "sim/churn.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace ballfit;

constexpr unsigned kThreads = 4;
/// Cut between surface samples (|sd| ~ 1e-9) and interior samples
/// (|sd| >= 0.35 R); see true_surface.
constexpr double kTruthTolerance = 0.1;
/// Round r soaks the churn stream of seed kChurnSeed + r whatever --seed
/// is, so every run soaks the same event counts per step.
constexpr std::uint64_t kChurnSeed = 1;
/// Untraced runs always complete this many rounds; boundary_correct sums
/// their scores, so it repeats exactly for a given --seed.
constexpr std::size_t kScoredRounds = 3;

struct Spec {
  std::string name;
  bool sharded = false;
  double error = 0.0;
  std::size_t churn_steps = 0;
  /// Accuracy bounds as fractions of the true surface (README explains
  /// each against the paper's Fig. 11(a)).
  double max_mistaken = 0.0;
  double max_missing = 0.0;
};

std::optional<Spec> find_spec(const std::string& name) {
  if (name == "paper_noisy_churn") {
    return Spec{name, false, 0.20, 30, 0.20, 0.25};
  }
  if (name == "paper_exact") return Spec{name, false, 0.0, 20, 0.05, 0.08};
  if (name == "scale_sharded") return Spec{name, true, 0.0, 6, 0.06, 0.04};
  return std::nullopt;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (key == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return std::nullopt;
      args.trace = v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Attempted/failed operations, failed checks, and the metrics to print.
class Report {
 public:
  /// Runs one operation; an exception counts it as failed.
  template <typename Fn>
  bool attempt(const char* what, Fn&& fn) {
    ++attempted_;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      ++failed_;
      std::fprintf(stderr, "FAILED %s: %s\n", what, e.what());
      return false;
    }
  }

  /// Like `attempt`, for an operation later steps depend on: a failure
  /// ends the run.
  template <typename Fn>
  void require(const char* what, Fn&& fn) {
    if (!attempt(what, std::forward<Fn>(fn))) {
      throw std::runtime_error(std::string(what) + " failed");
    }
  }

  void check(const std::string& error) {
    if (error.empty()) return;
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }

  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct_ ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

core::PipelineConfig pipeline_config(const Spec& spec, std::uint64_t seed,
                                     unsigned threads) {
  core::PipelineConfig cfg;
  cfg.measurement_error = spec.error;
  cfg.noise_seed = seed;
  cfg.use_true_coordinates = spec.sharded;
  cfg.threads = threads;
  return cfg;
}

core::ShardedConfig sharded_config(const net::Network& network) {
  core::ShardedConfig cfg;
  cfg.threads = kThreads;
  // At least one shard per worker, at most the library's 50k target.
  cfg.target_nodes_per_shard = std::min<std::size_t>(
      cfg.target_nodes_per_shard, network.num_nodes() / kThreads);
  return cfg;
}

Input build_input(const Spec& spec, std::uint64_t seed) {
  return spec.sharded ? build_scaled_input(100'000, seed, kThreads)
                      : build_paper_input(1.0, seed, kThreads);
}

/// Network and noise seed of round `round`; round 0 uses --seed itself.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return seed + 0x9E3779B97F4A7C15ULL * round;
}

std::size_t flips(const std::vector<bool>& a, const std::vector<bool>& b) {
  std::size_t k = 0;
  for (std::size_t v = 0; v < a.size() && v < b.size(); ++v) k += a[v] != b[v];
  return k;
}

/// One incremental churn step's measurements.
struct ChurnStep {
  double apply_ms = 0.0;
  double run_ms = 0.0;
  std::size_t frames_rebuilt = 0;
  std::size_t nodes_retested = 0;
  std::size_t alive = 0;
  std::size_t boundary_flips = 0;
};

/// Crash/revive generator for the sharded soak (ChurnEngine drives a
/// DetectionSession only; a ShardedDetector also rejects moves that cross
/// shard membership). Each step crashes up to 3 random alive nodes and
/// revives up to 3 random dead ones, from a fixed seed.
class CrashReviveStream {
 public:
  CrashReviveStream(std::size_t n, std::uint64_t seed) : rng_(seed), n_(n) {}

  core::NetworkDelta next(const core::ShardedDetector& det) {
    core::NetworkDelta delta;
    const std::size_t crashes = rng_.uniform_index(4);
    const std::size_t revives = std::min<std::size_t>(rng_.uniform_index(4),
                                                      dead_.size());
    for (std::size_t k = 0; k < revives; ++k) {
      const std::size_t pick = rng_.uniform_index(dead_.size());
      delta.revived.push_back(dead_[pick]);
      dead_.erase(dead_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    while (delta.crashed.size() < crashes) {
      const auto v = static_cast<net::NodeId>(rng_.uniform_index(n_));
      if (!det.is_alive(v) ||
          std::find(delta.crashed.begin(), delta.crashed.end(), v) !=
              delta.crashed.end()) {
        continue;
      }
      delta.crashed.push_back(v);
    }
    dead_.insert(dead_.end(), delta.crashed.begin(), delta.crashed.end());
    return delta;
  }

 private:
  Rng rng_;
  std::size_t n_;
  std::vector<net::NodeId> dead_;
};

std::vector<net::NodeId> dead_nodes(std::size_t n, auto&& is_alive) {
  std::vector<net::NodeId> dead;
  for (net::NodeId v = 0; v < n; ++v) {
    if (!is_alive(v)) dead.push_back(v);
  }
  return dead;
}

/// Runs `steps` churn steps on `target` (a DetectionSession or a
/// ShardedDetector): `next_delta()` draws the step's delta, which is
/// applied and re-run timed apart. `sessions()` lists the sessions whose
/// partial-rebuild counters the step reads. `boundary` enters as the
/// boundary before the first step and leaves as the last step's.
template <typename Target, typename NextDelta, typename Sessions>
std::vector<ChurnStep> soak(Report& report, Target& target,
                            NextDelta&& next_delta, Sessions&& sessions,
                            const core::PipelineConfig& cfg, std::size_t steps,
                            std::vector<bool>& boundary, Tracer* tracer) {
  std::vector<ChurnStep> out;
  for (std::size_t s = 0; s < steps; ++s) {
    report.attempt("churn step", [&] {
      const core::NetworkDelta delta = next_delta();
      std::vector<core::SessionStats> before;
      for (const core::DetectionSession* x : sessions()) {
        before.push_back(x->stats());
      }
      ChurnStep step;
      auto t = Clock::now();
      {
        Tracer::Scope span(tracer, "churn.apply");
        if (!delta.empty()) target.apply(delta);
      }
      step.apply_ms = seconds_since(t) * 1e3;
      t = Clock::now();
      core::PipelineResult r;
      {
        Tracer::Scope span(tracer, "churn.run");
        r = target.run(cfg);
      }
      step.run_ms = seconds_since(t) * 1e3;
      std::size_t k = 0;
      for (const core::DetectionSession* x : sessions()) {
        const core::SessionStats& after = x->stats();
        if (after.localize.partial_runs > before[k].localize.partial_runs) {
          step.frames_rebuilt += after.last_frames_rebuilt;
        }
        if (after.ubf.partial_runs > before[k].ubf.partial_runs) {
          step.nodes_retested += after.last_nodes_retested;
        }
        ++k;
      }
      step.alive = target.num_alive();
      step.boundary_flips = flips(boundary, r.boundary);
      boundary = std::move(r.boundary);
      out.push_back(step);
    });
  }
  return out;
}

/// A ChurnEngine soak of one session (bursts drawn against its live alive
/// set).
std::vector<ChurnStep> soak_session(Report& report, net::Network& network,
                                    core::DetectionSession& session,
                                    const core::PipelineConfig& cfg,
                                    std::uint64_t churn_seed, std::size_t steps,
                                    std::vector<bool>& boundary,
                                    Tracer* tracer) {
  sim::ChurnConfig churn_cfg;
  churn_cfg.seed = churn_seed;
  sim::ChurnEngine engine(network, session, churn_cfg);
  const auto next_delta = [&] {
    std::vector<char> alive(network.num_nodes(), 0);
    for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
      alive[v] = session.is_alive(v) ? 1 : 0;
    }
    std::size_t num_alive = session.num_alive();
    const core::NetworkDelta burst = engine.generate_burst(alive, num_alive);
    return sim::coalesce_deltas(std::span<const core::NetworkDelta>(&burst, 1));
  };
  const auto sessions = [&] {
    return std::vector<const core::DetectionSession*>{&session};
  };
  return soak(report, session, next_delta, sessions, cfg, steps, boundary,
              tracer);
}

/// A crash/revive soak of a sharded detector.
std::vector<ChurnStep> soak_sharded(Report& report, const net::Network& network,
                                    core::ShardedDetector& det,
                                    const core::PipelineConfig& cfg,
                                    std::uint64_t churn_seed, std::size_t steps,
                                    std::vector<bool>& boundary,
                                    Tracer* tracer) {
  CrashReviveStream stream(network.num_nodes(), churn_seed);
  const auto next_delta = [&] { return stream.next(det); };
  const auto sessions = [&] {
    std::vector<const core::DetectionSession*> out;
    for (std::size_t k = 0; k < det.num_shards(); ++k) {
      out.push_back(&det.shard_session(k));
    }
    return out;
  };
  return soak(report, det, next_delta, sessions, cfg, steps, boundary, tracer);
}

/// Checks on one cold detection of the pristine network: accuracy against
/// the shape's own surface, Fig. 11(b) hop bound, grouping, the IFF oracle,
/// and every mesh. Returns the number of correctly flagged nodes.
std::size_t verify_detection(Report& report, const Spec& spec,
                             const Input& in, const std::vector<bool>& truth,
                             const std::vector<bool>& candidates,
                             const std::vector<bool>& boundary,
                             const core::BoundaryGroups& groups,
                             const mesh::SurfaceResult& surfaces) {
  const Score s = score(truth, boundary);
  std::fprintf(stderr,
               "[%s] %zu nodes, avg degree %.2f; true %zu, found %zu: "
               "correct %zu, mistaken %zu, missing %zu; %zu groups, %zu "
               "surfaces\n",
               spec.name.c_str(), in.network.num_nodes(), in.average_degree,
               s.truth, s.correct + s.mistaken, s.correct,
               s.mistaken, s.missing, groups.count(),
               surfaces.surfaces.size());
  report.check(check_accuracy(s, spec.max_mistaken, spec.max_missing));
  report.check(check_mistaken_near_correct(in.network, truth, boundary, 3));
  report.check(check_groups_are_components(in.network, boundary, groups));
  if (spec.sharded) {
    // Groups smaller than the IFF threshold are split-off fragments; they
    // occur on some seeds and are reported, not counted (see README).
    report.check(check_group_count(
        groups, static_cast<std::size_t>(in.scenario.num_inner_holes) + 1,
        core::IffConfig{}.theta));
  }
  core::IffConfig oracle;
  oracle.use_message_passing = false;
  report.check(check_same_flags(
      core::iff_filter(in.network, candidates, oracle), boundary,
      "message-passing IFF vs BFS-oracle IFF"));
  for (const mesh::BoundarySurface& surface : surfaces.surfaces) {
    report.check(check_mesh(surface, boundary));
  }
  return s.correct;
}

/// After a soak: a cold DetectionSession on the mutated network with the
/// same nodes crashed must give the incremental boundary.
void verify_churn(Report& report, const net::Network& network,
                  const std::vector<net::NodeId>& dead,
                  const core::PipelineConfig& cfg,
                  const std::vector<bool>& incremental) {
  report.attempt("cold reference after churn", [&] {
    core::DetectionSession cold(network);
    core::NetworkDelta delta;
    delta.crashed = dead;
    if (!delta.empty()) cold.apply(delta);
    report.check(check_same_flags(cold.run(cfg).boundary, incremental,
                                  "incremental vs cold after churn"));
  });
}

struct ChurnSummary {
  double apply_p50 = 0.0, run_p50 = 0.0, step_p50 = 0.0;
  double frames_mean = 0.0, retested_mean = 0.0, dirty_fraction = 0.0;
  double boundary_churn = 0.0;
};

ChurnSummary summarize(const std::vector<ChurnStep>& steps) {
  std::vector<double> apply, run, total, frames, retested, dirty;
  ChurnSummary out;
  for (const ChurnStep& s : steps) {
    apply.push_back(s.apply_ms);
    run.push_back(s.run_ms);
    total.push_back(s.apply_ms + s.run_ms);
    frames.push_back(static_cast<double>(s.frames_rebuilt));
    retested.push_back(static_cast<double>(s.nodes_retested));
    dirty.push_back(static_cast<double>(s.frames_rebuilt) /
                    static_cast<double>(std::max<std::size_t>(1, s.alive)));
    out.boundary_churn += static_cast<double>(s.boundary_flips);
  }
  out.apply_p50 = median(apply);
  out.run_p50 = median(run);
  out.step_p50 = median(total);
  out.frames_mean = mean(frames);
  out.retested_mean = mean(retested);
  out.dirty_fraction = mean(dirty);
  return out;
}

/// --trace 0: whole rounds, each on its own network drawn from the seed
/// (cold detection, mesh, soak), until the measuring time is used up and
/// at least kScoredRounds are done; timings are medians over all rounds.
void run_untraced(const Spec& spec, const Args& args, Clock::time_point t0,
                  Report& report) {
  double setup_s = -1.0;
  double rss_mib = 0.0;
  std::vector<double> detect_s;
  std::vector<ChurnStep> steps;
  std::size_t correct = 0;
  // The last round's input and soak outcome, for the post-soak cold
  // comparison.
  std::unique_ptr<Input> in;
  core::PipelineConfig cfg;
  std::vector<bool> boundary;
  std::vector<net::NodeId> dead;
  Clock::time_point loop_start;

  for (std::size_t round = 0;; ++round) {
    const std::uint64_t seed = round_seed(args.seed, round);
    in = std::make_unique<Input>(build_input(spec, seed));
    cfg = pipeline_config(spec, seed, kThreads);
    net::Network& network = in->network;
    std::unique_ptr<core::DetectionSession> session;
    std::unique_ptr<core::ShardedDetector> det;
    if (!spec.sharded) {
      session = std::make_unique<core::DetectionSession>(network);
    }
    if (setup_s < 0.0) {
      setup_s = seconds_since(t0);
      loop_start = Clock::now();
    }

    core::PipelineResult result;
    const auto t = Clock::now();
    report.require("cold detection", [&] {
      if (spec.sharded) {
        det = std::make_unique<core::ShardedDetector>(
            network, sharded_config(network));
        result = det->run(cfg);
      } else {
        result = session->run(cfg);
      }
    });
    detect_s.push_back(seconds_since(t));
    mesh::SurfaceResult surfaces;
    report.attempt("mesh", [&] {
      surfaces = mesh::build_surfaces(network, result.boundary, result.groups);
    });
    const std::size_t c = verify_detection(
        report, spec, *in,
        true_surface(*in->scenario.shape, network, kTruthTolerance),
        result.ubf_candidates, result.boundary, result.groups, surfaces);
    if (round < kScoredRounds) correct += c;

    boundary = std::move(result.boundary);
    const std::uint64_t churn_seed = kChurnSeed + round;
    const auto s = spec.sharded
                       ? soak_sharded(report, network, *det, cfg, churn_seed,
                                      spec.churn_steps, boundary, nullptr)
                       : soak_session(report, network, *session, cfg,
                                      churn_seed, spec.churn_steps, boundary,
                                      nullptr);
    steps.insert(steps.end(), s.begin(), s.end());
    dead = dead_nodes(network.num_nodes(), [&](net::NodeId v) {
      return spec.sharded ? det->is_alive(v) : session->is_alive(v);
    });
    if (round == 0) rss_mib = peak_rss_mib();
    if (round + 1 >= kScoredRounds &&
        seconds_since(loop_start) >= args.seconds) {
      break;
    }
  }

  verify_churn(report, in->network, dead, cfg, boundary);

  report.metric("setup_s", setup_s, "s");
  report.metric("detect_s", median(detect_s), "s");
  report.metric("redetect_p50_ms", summarize(steps).step_p50, "ms");
  report.metric("boundary_correct", static_cast<double>(correct), "count");
  report.metric("peak_rss_mib", rss_mib, "MiB");
  std::fprintf(stderr, "[%s] %zu rounds, %zu churn steps\n",
               spec.name.c_str(), detect_s.size(), steps.size());
}

void add_mesh_metrics(Report& report, const mesh::SurfaceResult& surfaces) {
  double landmarks = 0, cdg = 0, cdm = 0, added = 0, flipped = 0, tris = 0;
  for (const mesh::BoundarySurface& s : surfaces.surfaces) {
    landmarks += static_cast<double>(s.landmarks.size());
    cdg += static_cast<double>(s.cdg_edges);
    cdm += static_cast<double>(s.cdm_edges);
    added += static_cast<double>(s.added_edges);
    flipped += static_cast<double>(s.flips);
    tris += static_cast<double>(s.mesh.triangles().size());
  }
  report.metric("mesh.landmarks", landmarks, "count");
  report.metric("mesh.cdg_edges", cdg, "count");
  report.metric("mesh.cdm_edges", cdm, "count");
  report.metric("mesh.added_edges", added, "count");
  report.metric("mesh.flips", flipped, "count");
  report.metric("mesh.triangles", tris, "count");
}

/// One pass calling each layer's public functions in turn, with spans
/// around every call.
void traced_pass(const Spec& spec, const Args& args, Report& report,
                 Tracer& tracer) {
  Tracer* tr = &tracer;

  std::optional<Input> in;
  {
    Tracer::Scope span(tr, "net.build");
    in.emplace(build_input(spec, args.seed));
  }
  const net::Network& network = in->network;
  const std::size_t n = network.num_nodes();
  const std::vector<bool> truth =
      true_surface(*in->scenario.shape, network, kTruthTolerance);
  const core::PipelineConfig cfg1 = pipeline_config(spec, args.seed, 1);
  const core::PipelineConfig cfg = pipeline_config(spec, args.seed, kThreads);

  // --- The layer-by-layer path on 1 thread.
  std::optional<net::NoisyDistanceModel> model;
  std::optional<localization::Localizer> localizer;
  std::vector<localization::LocalFrame> frames;
  localization::FrameBuildStats loc_stats;
  std::vector<bool> candidates, boundary;
  std::size_t fallbacks = 0;
  sim::RunStats iff_cost, group_cost;
  core::BoundaryGroups groups;
  mesh::SurfaceResult surfaces;
  core::UbfConfig ubf_cfg = cfg1.ubf;
  if (!spec.sharded) {
    // As DetectionSession does: nodes know their ranging error spec.
    ubf_cfg.measurement_error_hint = spec.error;
    report.require("measure", [&] {
      Tracer::Scope span(tr, "measure");
      model.emplace(network, spec.error, args.seed);
      localizer.emplace(network, *model, cfg1.localizer);
    });
    report.require("localize", [&] {
      Tracer::Scope span(tr, "localize");
      localization::build_all_frames(*localizer,
                                     localization::FrameScope::kTwoHop,
                                     frames, 1, nullptr, nullptr, &loc_stats);
    });
    report.require("localize init pass", [&] {
      Tracer::Scope span(tr, "localize.init");
      std::vector<geom::Vec3> init;
      std::size_t pairs = 0;
      for (net::NodeId v = 0; v < n; ++v) {
        // mdsmap_init appends members, so every node needs an empty frame.
        localization::LocalFrame frame;
        localizer->mdsmap_init(v, nullptr, frame, init, pairs);
      }
    });
    report.require("ubf", [&] {
      Tracer::Scope span(tr, "ubf");
      candidates = core::UnitBallFitting(network, ubf_cfg)
                       .detect_on_frames(frames, 1, &fallbacks);
    });
  } else {
    report.require("ubf", [&] {
      Tracer::Scope span(tr, "ubf");
      candidates = core::UnitBallFitting(network, ubf_cfg)
                       .detect_with_true_coordinates(&fallbacks);
    });
  }
  report.require("iff", [&] {
    Tracer::Scope span(tr, "iff");
    boundary = core::iff_filter(network, candidates, cfg1.iff, &iff_cost);
  });
  report.require("group", [&] {
    Tracer::Scope span(tr, "group");
    groups = core::group_boundaries(network, boundary,
                                    cfg1.iff.use_message_passing, &group_cost);
  });
  report.require("mesh", [&] {
    Tracer::Scope span(tr, "mesh");
    surfaces = mesh::build_surfaces(network, boundary, groups);
  });
  const double layers_s = tracer.total_s("measure") +
                          tracer.total_s("localize") + tracer.total_s("ubf") +
                          tracer.total_s("iff") + tracer.total_s("group");

  // --- The one-call path on the same thread count, untraced inside.
  auto mutable_network = std::make_unique<net::Network>(network);
  core::DetectionSession session(*mutable_network);
  core::PipelineResult reference;
  double reference_s = 0.0;
  report.require("reference session", [&] {
    Tracer::Scope span(tr, "reference");
    const auto t = Clock::now();
    reference = session.run(cfg1);
    reference_s = seconds_since(t);
  });
  report.check(check_same_flags(candidates, reference.ubf_candidates,
                                "layer-by-layer vs session UBF candidates"));
  report.check(check_same_flags(boundary, reference.boundary,
                                "layer-by-layer vs session boundary"));
  if (groups.groups != reference.groups.groups) {
    report.check("layer-by-layer vs session groups differ");
  }
  const std::size_t correct = verify_detection(
      report, spec, *in, truth, candidates, boundary, groups, surfaces);

  // --- Sharded detection. The paper workloads split their box into 2x2
  // column shards so that the partition and stitch layers run there too.
  std::unique_ptr<core::ShardedDetector> det;
  core::PipelineResult sharded;
  core::ShardedConfig scfg = sharded_config(network);
  if (!spec.sharded) {
    scfg.cells_x = 2;
    scfg.cells_y = 2;
    scfg.cells_z = 1;
  }
  report.require("shard partition", [&] {
    Tracer::Scope span(tr, "shard.partition");
    det = std::make_unique<core::ShardedDetector>(network, scfg);
  });
  report.require("shard run", [&] {
    Tracer::Scope span(tr, "shard.run");
    sharded = det->run(cfg);
  });
  report.check(check_same_flags(boundary, sharded.boundary,
                                "layer-by-layer vs sharded boundary"));
  double halo = 0.0, seen = 0.0, slowest_ms = 0.0;
  for (std::size_t s = 0; s < det->num_shards(); ++s) {
    const core::ShardInfo& info = det->shard_info(s);
    halo += static_cast<double>(info.halo_nodes);
    seen += static_cast<double>(info.owned_nodes + info.halo_nodes);
    slowest_ms = std::max(slowest_ms, info.last_detect_ms);
  }

  // --- Churn: through the reference session, or the sharded detector.
  std::vector<bool> churned = reference.boundary;
  std::vector<ChurnStep> steps;
  std::vector<net::NodeId> dead;
  if (spec.sharded) {
    steps = soak_sharded(report, network, *det, cfg, kChurnSeed,
                         spec.churn_steps, churned, tr);
    dead = dead_nodes(n, [&](net::NodeId v) { return det->is_alive(v); });
  } else {
    steps = soak_session(report, *mutable_network, session, cfg, kChurnSeed,
                         spec.churn_steps, churned, tr);
    dead = dead_nodes(n, [&](net::NodeId v) { return session.is_alive(v); });
  }
  verify_churn(report, spec.sharded ? network : *mutable_network, dead, cfg,
               churned);
  const ChurnSummary churn = summarize(steps);

  report.metric("net.build_s", tracer.total_s("net.build"), "s");
  report.metric("net.edges", static_cast<double>(edge_count(network)),
                "count");
  report.metric("measure.setup_s", tracer.self_s("measure"), "s");
  report.metric("localize.s", tracer.self_s("localize"), "s");
  report.metric("localize.init_s", tracer.self_s("localize.init"), "s");
  report.metric("localize.frames_built",
                static_cast<double>(loc_stats.frames_built), "count");
  report.metric("localize.sweeps_executed",
                static_cast<double>(loc_stats.sweeps_executed), "count");
  report.metric("localize.sweep_budget",
                static_cast<double>(loc_stats.sweep_budget), "count");
  report.metric("localize.restarts_skipped",
                static_cast<double>(loc_stats.restarts_skipped), "count");
  report.metric("localize.plateau_exits",
                static_cast<double>(loc_stats.plateau_exits), "count");
  report.metric("localize.stress_exits",
                static_cast<double>(loc_stats.stress_exits), "count");
  report.metric("ubf.s", tracer.self_s("ubf"), "s");
  report.metric("ubf.candidates",
                static_cast<double>(std::count(candidates.begin(),
                                               candidates.end(), true)),
                "count");
  report.metric("ubf.frame_fallbacks", static_cast<double>(fallbacks),
                "count");
  report.metric("iff.s", tracer.self_s("iff"), "s");
  report.metric("iff.messages", static_cast<double>(iff_cost.messages),
                "count");
  report.metric("iff.rounds", static_cast<double>(iff_cost.rounds), "count");
  report.metric("group.s", tracer.self_s("group"), "s");
  report.metric("group.messages", static_cast<double>(group_cost.messages),
                "count");
  report.metric("group.count", static_cast<double>(groups.count()), "count");
  report.metric("mesh.s", tracer.self_s("mesh"), "s");
  add_mesh_metrics(report, surfaces);
  report.metric("shard.partition_s", tracer.self_s("shard.partition"), "s");
  report.metric("shard.run_s", tracer.self_s("shard.run"), "s");
  report.metric("shard.count", static_cast<double>(det->num_shards()),
                "count");
  report.metric("shard.halo_nodes", halo, "count");
  report.metric("shard.stitch_merges",
                static_cast<double>(det->last_stitch_merges()), "count");
  report.metric("shard.redundancy", seen / static_cast<double>(n), "ratio");
  report.metric("shard.detect_ms_max", slowest_ms, "ms");
  report.metric("churn.apply_ms_p50", churn.apply_p50, "ms");
  report.metric("churn.run_ms_p50", churn.run_p50, "ms");
  report.metric("churn.frames_rebuilt_mean", churn.frames_mean, "count");
  report.metric("churn.nodes_retested_mean", churn.retested_mean, "count");
  report.metric("churn.dirty_fraction", churn.dirty_fraction, "ratio");
  report.metric("churn.boundary_churn", churn.boundary_churn, "count");
  report.metric("trace.overhead_s", layers_s - reference_s, "s");
  std::fprintf(stderr,
               "[%s] traced: layers %.3f s vs one-call %.3f s (1 thread); "
               "%zu correct\n",
               spec.name.c_str(), layers_s, reference_s, correct);
}

/// --trace 1: the traced pass under a root span; spans are kept in memory
/// and written out at the end.
void run_traced(const Spec& spec, const Args& args, Report& report) {
  Tracer tracer;
  {
    Tracer::Scope root(&tracer, "run");
    traced_pass(spec, args, report, tracer);
  }
  mkdir(".bench_out", 0755);
  const std::string path = ".bench_out/trace-" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!tracer.write_json(path)) {
    report.check("cannot write " + path);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point t0 = Clock::now();
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1>\n");
    return 2;
  }
  const std::optional<Spec> spec = find_spec(args->workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  Report report;
  try {
    if (args->trace) {
      run_traced(*spec, *args, report);
    } else {
      run_untraced(*spec, *args, t0, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
