#ifndef QCFE_UTIL_RNG_H_
#define QCFE_UTIL_RNG_H_

/// \file rng.h
/// Deterministic pseudo-random generation used across the whole project.
/// Every stochastic component takes an explicit seed so experiments are
/// reproducible run-to-run and machine-to-machine (no std:: distribution
/// implementation dependence).

#include <cstdint>
#include <string>
#include <vector>

namespace qcfe {

/// SplitMix64-based generator with hand-rolled distributions.
///
/// Deliberately small: uniform ints/doubles, Gaussian (Box-Muller),
/// log-normal, sampling and shuffling. Zipf draws go through ZipfTable
/// (below), which precomputes its CDF once per (n, s). All methods are
/// deterministic functions of the seed and the call sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ULL) {
    // Warm up so small seeds decorrelate quickly.
    Next();
    Next();
  }

  /// Next raw 64-bit value (SplitMix64 step).
  uint64_t Next();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (stateless variant; no cached spare).
  double Gaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Log-normal multiplicative noise centred at 1.0:
  /// exp(N(-sigma^2/2, sigma)) so that E[value] == 1.
  double LognormalNoise(double sigma);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Picks one element uniformly.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[static_cast<size_t>(UniformInt(0, items.size() - 1))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// Random lowercase ASCII string of the given length.
  std::string RandomString(size_t length);

  /// Derives an independent deterministic sub-stream identified by
  /// `stream`. Split() is const — it does not advance this generator — so
  /// Split(i) depends only on the generator's state at the call and the
  /// stream id, never on how many sibling streams were split before it.
  /// This is the per-task seeding primitive for parallel collection and
  /// reduction: task i always gets the same stream whether tasks run
  /// serially, in any interleaving, or not at all.
  Rng Split(uint64_t stream) const;

  /// Raw generator state, for model persistence (core/artifact.h): restoring
  /// it resumes the stream exactly where the saved generator left off, so a
  /// loaded model's future stochastic decisions (e.g. warm-start retraining)
  /// match the never-persisted original bit for bit.
  uint64_t state() const { return state_; }
  void set_state(uint64_t state) { state_ = state; }

 private:
  uint64_t state_;
};

/// Zipf-distributed integers in [1, n]: P(i) proportional to 1/i^s, with
/// s <= 0 meaning uniform.
///
/// Contract: construction is O(n) time and memory (the inclusive prefix
/// sums of 1/i^s, accumulated in index order); Sample() is O(log n) and
/// consumes exactly one Uniform() (UniformInt(1, n) when s <= 0). Prefix
/// sums of non-negative terms never decrease in floating point, so the
/// binary search returns bit for bit the index the inverse-CDF linear scan
/// over the same sums returns, from the same Rng stream. Build one table
/// per (n, s) outside the draw loop. n < 1 or a non-finite s fails a
/// QCFE_CHECK.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double s);

  /// One draw in [1, n].
  int64_t Sample(Rng* rng) const;

 private:
  int64_t n_;
  std::vector<double> cdf_;  // unnormalised; empty when s <= 0 (uniform)
};

}  // namespace qcfe

#endif  // QCFE_UTIL_RNG_H_
