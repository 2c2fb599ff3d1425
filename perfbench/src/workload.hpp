#pragma once

/// \file workload.hpp
/// Input construction and measurement helpers of the repository benchmark:
/// the paper-scale and 100k-node Fig. 1 networks, an in-memory span
/// recorder for the traced mode, and process-level probes.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "model/zoo.hpp"
#include "net/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A generated input: the scenario (its shape is the ground-truth oracle)
/// and the network sampled from it.
struct Input {
  ballfit::model::Scenario scenario;
  ballfit::net::Network network;
  double average_degree = 0.0;
};

/// The Fig. 1 box-with-hole at `scale`, calibrated to the paper's operating
/// point (average degree ~18.5, half the nodes on the surface, interior
/// nodes kept 0.35 R off the surface as in a TetGen mesh). Deterministic in
/// `seed`.
Input build_paper_input(double scale, std::uint64_t seed, unsigned threads);

/// The Fig. 1 shape sized analytically to about `target_nodes` at the
/// paper's density (no probe build), as used for the 100k-node workload.
Input build_scaled_input(std::size_t target_nodes, std::uint64_t seed,
                         unsigned threads);

/// Undirected radio links of `network` (count).
std::size_t edge_count(const ballfit::net::Network& network);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// In-memory span recorder for the traced mode. Spans nest by scope on the
/// calling thread; `self_s` subtracts the time covered by direct children.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since tracer construction
    double end_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Wall time of all spans named `name` minus their direct children.
  double self_s(const std::string& name) const;
  /// Wall time of all spans named `name`.
  double total_s(const std::string& name) const;
  /// Writes the spans as a JSON array; returns false when the file cannot
  /// be written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
