#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

#include "common/rng.hpp"
#include "model/sampler.hpp"
#include "net/builder.hpp"

namespace perfbench {

using namespace ballfit;

Input build_paper_input(double scale, std::uint64_t seed, unsigned threads) {
  model::Scenario scenario = model::fig1_network(scale);
  Rng rng(seed);
  // 18.8 requested lands at ~18.5 measured: nodes near the faces lose part
  // of their unit ball to the outside.
  net::BuildOptions options = net::options_for_target_degree(
      *scenario.shape, 18.8, /*surface_share=*/0.5, rng);
  options.interior_margin = 0.35 * options.radio_range;
  options.threads = threads;
  net::BuildDiagnostics diag;
  net::Network network =
      net::build_network(*scenario.shape, options, rng, &diag);
  return {std::move(scenario), std::move(network), diag.average_degree};
}

Input build_scaled_input(std::size_t target_nodes, std::uint64_t seed,
                         unsigned threads) {
  // Solve rho*V*c^3 + sigma*A*c^2 = target_nodes for the shape scale c,
  // with interior density rho = degree / (4/3 pi R^3) and the surface
  // sampled at the matching areal density sigma = rho^(2/3); V and A are
  // Monte-Carlo estimates of the unit-scale shape.
  constexpr double kDegree = 18.5;
  Rng rng(seed);
  const model::Scenario unit = model::fig1_network(1.0);
  const double v1 = model::estimate_volume(*unit.shape, rng);
  const double a1 = model::estimate_area(*unit.shape, rng);
  const double rho = kDegree / (4.0 / 3.0 * std::numbers::pi);
  const double sigma = std::pow(rho, 2.0 / 3.0);
  const double want = static_cast<double>(target_nodes);
  double c = std::cbrt(want / (rho * v1));
  for (int it = 0; it < 24; ++it) {
    const double f = rho * v1 * c * c * c + sigma * a1 * c * c - want;
    const double df = 3.0 * rho * v1 * c * c + 2.0 * sigma * a1 * c;
    c -= f / df;
  }
  model::Scenario scenario = model::fig1_network(c);
  net::BuildOptions options;
  options.radio_range = 1.0;
  options.surface_count = static_cast<std::size_t>(
      std::max(1.0, std::round(sigma * a1 * c * c)));
  options.interior_count = target_nodes > options.surface_count
                               ? target_nodes - options.surface_count
                               : 1;
  options.interior_margin = 0.35;
  options.threads = threads;
  net::BuildDiagnostics diag;
  net::Network network =
      net::build_network(*scenario.shape, options, rng, &diag);
  return {std::move(scenario), std::move(network), diag.average_degree};
}

std::size_t edge_count(const net::Network& network) {
  std::size_t directed = 0;
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    directed += network.degree(v);
  }
  return directed / 2;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.start_s = seconds_since(tracer_->epoch_);
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_s = seconds_since(tracer_->epoch_);
  tracer_->open_.pop_back();
  std::fprintf(stderr, "[span] %-16s %10.4f s\n", span.name.c_str(),
               span.end_s - span.start_s);
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

double Tracer::self_s(const std::string& name) const {
  double self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    self += spans_[i].end_s - spans_[i].start_s;
    // Children of one span run one after another on this thread, so their
    // durations never overlap and simply subtract.
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) {
        self -= child.end_s - child.start_s;
      }
    }
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}%s\n",
                 i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
