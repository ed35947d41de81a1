#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/check.h"

namespace qcfe {

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return lo + static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return lo + static_cast<int64_t>(v % span);
}

double Rng::Gaussian() {
  // Box-Muller; draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::LognormalNoise(double sigma) {
  if (sigma <= 0.0) return 1.0;
  return std::exp(Gaussian(-0.5 * sigma * sigma, sigma));
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n - 1)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::string Rng::RandomString(size_t length) {
  std::string out(length, 'a');
  for (size_t i = 0; i < length; ++i) {
    out[i] = static_cast<char>('a' + UniformInt(0, 25));
  }
  return out;
}

Rng Rng::Split(uint64_t stream) const {
  // Full SplitMix64 finalizer over (state, stream) so that adjacent stream
  // ids land in well-separated states; an additive constant other than
  // Next()'s step keeps Split(i) off the parent's own sequence.
  uint64_t z = state_ + 0xBF58476D1CE4E5B9ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return Rng(z ^ (z >> 31));
}

ZipfTable::ZipfTable(int64_t n, double s) : n_(n) {
  QCFE_CHECK(n >= 1, "ZipfTable needs n >= 1");
  QCFE_CHECK(std::isfinite(s), "ZipfTable needs a finite exponent");
  if (s <= 0.0) return;
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    cdf_[static_cast<size_t>(i - 1)] = acc;
  }
}

int64_t ZipfTable::Sample(Rng* rng) const {
  if (cdf_.empty()) return rng->UniformInt(1, n_);
  // Uniform() < 1, so target <= cdf_.back() and the search never runs off
  // the end of the table.
  const double target = rng->Uniform() * cdf_.back();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), target);
  return static_cast<int64_t>(it - cdf_.begin()) + 1;
}

}  // namespace qcfe
