#include "host_speed.hpp"

#include <algorithm>
#include <random>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTreeKeys = 1u << 20;
constexpr std::uint64_t kHashKeys = 1u << 21;
constexpr int kTreeLookups = 60000;
constexpr int kHashLookups = 300000;
constexpr std::uint64_t kSpread = 2654435761u;  // Knuth's multiplicative hash

}  // namespace

HostSpeed::HostSpeed() {
  // Sorted keys with an end hint insert in constant time each.
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys(kTreeKeys);
  for (std::uint64_t& k : keys) k = rng();
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t i = 0; i < kTreeKeys; ++i) {
    tree_.emplace_hint(tree_.end(), keys[i], i);
  }
  hash_.reserve(kHashKeys);
  for (std::uint64_t i = 0; i < kHashKeys; ++i) hash_[i * kSpread] = i;
}

void HostSpeed::sample() {
  std::mt19937_64 rng(11);
  const double start = cpu_seconds();
  for (int i = 0; i < kTreeLookups; ++i) {
    auto it = tree_.lower_bound(rng());
    if (it != tree_.end()) sink_ += it->second;
  }
  for (int i = 0; i < kHashLookups; ++i) {
    sink_ += hash_.find((rng() % kHashKeys) * kSpread)->second;
  }
  samples_.push_back(cpu_seconds() - start);
}

double HostSpeed::kernel_s() const {
  std::vector<double> v = samples_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
