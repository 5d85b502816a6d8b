// How fast the host runs memory-bound code right now, measured with a fixed
// reference kernel, so host times can be scaled to one reference speed.
//
// The benchmark runs on virtual machines that share their host. Other
// guests on the same processors and memory slow this one down, by up to a
// factor of two, in phases lasting minutes, and CPU time does not leave
// that out (it leaves out only the time the machine was not running). In
// those phases an arithmetic loop keeps its speed while memory latency
// rises, and the engine walks data structures of a few hundred MB, so the
// benchmark measures a kernel of that kind: random lookups in a std::map
// and a std::unordered_map that do not fit in the private caches. The
// kernel is the benchmark's own code and data; no change to the engine
// changes its cost.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// The kernel's CPU time on the reference host: about its median on the
/// 4-core virtual machine the benchmark was defined on. A host time scaled
/// by factor() reads as if measured on that host.
constexpr double kReferenceKernelS = 0.120;

class HostSpeed {
 public:
  /// Builds the kernel's data, about 150 MB, once.
  HostSpeed();

  /// Runs the kernel once and records its CPU seconds. The work is the
  /// same on every call.
  void sample();

  /// Median CPU seconds of the kernel over the samples so far.
  double kernel_s() const;

  /// The factor that scales the host times measured while the samples were
  /// taken to the reference host. One factor per run: a single kernel run
  /// is short and noisy, but the median of one every few seconds follows
  /// the phases of the host's speed.
  double factor() const { return kReferenceKernelS / kernel_s(); }

 private:
  std::map<std::uint64_t, std::uint64_t> tree_;
  std::unordered_map<std::uint64_t, std::uint64_t> hash_;
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;  // keeps the lookups from being optimised away
};

}  // namespace perfbench
