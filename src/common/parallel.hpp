#pragma once

/// \file parallel.hpp
/// Minimal dynamically scheduled parallel-for over an index range.
///
/// The per-node stages (local MDS + unit-ball test) are embarrassingly
/// parallel and read-only over shared state, so a plain thread split is all
/// the machinery we need — no pools, no work stealing. Indices are handed
/// out in small chunks from one atomic counter, so a range of unequal work
/// items (a few shards, or frames of very different sizes) balances across
/// the workers instead of serializing on the slowest contiguous block.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ballfit {

/// Invokes `fn(i)` for every i in [0, count). With `threads <= 1` or
/// `count <= 1` runs inline; otherwise starts `min(count, threads)`
/// workers that claim chunks of `ceil(count / (8 * threads))` consecutive
/// indices from a shared counter until the range is exhausted. Which worker
/// runs an index is unspecified, so `fn` must be safe to call concurrently
/// on distinct indices and must not depend on the assignment.
///
/// Exception-safe: if `fn` throws on a worker, the first exception is
/// captured and rethrown on the joining thread (a throw that escaped a
/// worker would call std::terminate). The remaining workers stop at their
/// next index, so not every index is necessarily visited after a failure.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, unsigned threads) {
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t num_workers =
      std::min<std::size_t>(count, static_cast<std::size_t>(threads));
  const std::size_t slots = 8 * static_cast<std::size_t>(threads);
  const std::size_t chunk = (count + slots - 1) / slots;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (std::size_t t = 0; t < num_workers; ++t) {
    workers.emplace_back([&] {
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= count) break;
          const std::size_t end = std::min(count, begin + chunk);
          for (std::size_t i = begin;
               i < end && !failed.load(std::memory_order_relaxed); ++i) {
            fn(i);
          }
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

/// The default worker count: hardware concurrency, at least 1.
unsigned default_threads();

}  // namespace ballfit
