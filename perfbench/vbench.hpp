// Shared declarations of the benchmark program: run options, the report a
// workload returns, and small statistics helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: the same rigs on designs small enough to run in well
  /// under a second.
  bool tiny = false;
  /// tenant-mix only: every request is due at the window start, so the
  /// connections run closed loop and achieved_rps reads the rig's capacity.
  bool saturate = false;
  /// Where the traced run writes its spans.
  std::string outDir = ".";
};

/// What one workload run produced. Metric maps are keyed by the names in
/// BENCHMARK.json; main() fills in units and emits the set the run mode
/// asks for.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<std::string> notes;     // extra "# " diagnostic lines
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  /// Digest of the outputs the run checked (identical traced vs untraced).
  std::string digest;
  /// Counts that must repeat exactly for a seed, traced or not.
  std::map<std::string, double> deterministic;

  /// Marks the run incorrect; each distinct reason is kept once.
  void fail(const std::string& why) {
    correct = false;
    if (std::find(problems.begin(), problems.end(), why) == problems.end()) {
      problems.push_back(why);
    }
  }
};

Report runCampaignWorkload(const Options& opt);
Report runTenantMix(const Options& opt);

/// Deterministic counts agree: the same names, and values equal up to the
/// rounding of float sums whose order follows reply completion.
bool sameCounts(const std::map<std::string, double>& a,
                const std::map<std::string, double>& b);

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0,1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
/// Restarts the process's peak-RSS mark (Linux clear_refs), so the next
/// peakRssMb() reads the peak of the work in between.
void resetPeakRss();
/// Peak resident set since the last resetPeakRss() (since process start
/// where the mark cannot be reset), in MiB.
double peakRssMb();

/// The reference loop's typical time on the host the benchmark was tuned
/// on, in a campaign worker with all workers running (README.md,
/// "Calibrated times"). CPU-bound times are reported at this reference
/// speed: each is multiplied by kReferenceMs over the reference loop's time
/// measured beside it.
constexpr double kReferenceMs = 40.0;

/// Times a fixed integer loop with six interleaved accumulators, in ms. It
/// keeps the core's execution ports busy the way the program does, so it
/// slows with the program when the host loads the core (a busy sibling
/// hyperthread). The host-noise spin loop, one dependent chain, does not.
double referenceLoopMs();

/// Most CPUs a campaign run spreads its worker processes over.
constexpr std::size_t kMaxCpus = 4;

/// The CPUs this process may run on, at most `limit` of them; {-1} when
/// the affinity mask cannot be read.
std::vector<int> usableCpus(std::size_t limit);

/// Pins the calling thread to `cpu`; -1 leaves it where it is.
void pinTo(int cpu);

/// Output digest: net::fnv1a over everything added, in order.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(const std::string& s) {
    add(s.data(), s.size());
    add("\0", 1);
  }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  std::string hex() const;

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace vbench
