// Shared helpers of the benchmark: timing, order statistics, and the result
// record printed as the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Sum(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the operation counts, whether every answer that
/// came back was right, and the metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< answers that differed from the oracle
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// An operation that did not complete or did not do the work the
  /// workload claims (wrong route, error status).
  void Failed(const std::string& why);
  /// An operation that completed with a wrong answer.
  void Wrong(const std::string& why);

  /// The one-line JSON object the benchmark ends with.
  std::string ToJson() const;
};

/// Run parameters from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

}  // namespace perfbench
