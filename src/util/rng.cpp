#include "util/rng.hpp"

#include "util/check.hpp"

namespace ndet {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t CounterRng::below_retry(std::uint64_t bound, std::uint64_t c0,
                                      std::uint64_t c1, __uint128_t m) const {
  // Lemire's multiply-shift rejection, continued: the inline fast path in
  // rng.hpp already drew attempt 0 and saw its low half under `bound`, the
  // only case where the exact threshold matters.  Retries walk the attempt
  // counter in the third counter word, so coordinate (c0, c1) fully
  // determines the result.
  const std::uint64_t threshold = (0 - bound) % bound;
  std::uint64_t attempt = 0;
  while (static_cast<std::uint64_t>(m) < threshold) {
    const std::uint64_t x = block(seed_, stream_, c0, c1, ++attempt).v[0];
    m = static_cast<__uint128_t>(x) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  require(bound > 0, "Rng::below: bound must be positive");
  // Lemire's multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::in_range(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "Rng::in_range: lo must be <= hi");
  return lo + below(hi - lo + 1);
}

bool Rng::chance(std::uint64_t numerator, std::uint64_t denominator) {
  require(denominator > 0, "Rng::chance: zero denominator");
  return below(denominator) < numerator;
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ull); }

}  // namespace ndet
