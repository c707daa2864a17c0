// The three benchmark workloads (campaign, oracle-net, specgen) and the
// loop that sets each up, repeats its fixed work for the requested time,
// checks its outputs and turns the measurements into named metrics.

#ifndef PIPEBENCH_WORKLOADS_H_
#define PIPEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace pipebench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's temporary snapshot directories (created and
  /// removed by the run).
  std::string scratch_dir;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spans_path;
  /// steady_clock seconds at process start; the first set-up is timed
  /// from here.
  double process_start = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchResult {
  bool correct = true;
  OpCount ops;
  std::vector<std::string> errors;  ///< One line per failed operation.
  std::vector<Metric> metrics;      ///< In report order.
  std::vector<std::string> notes;   ///< Human-readable context for stderr.
};

/// Runs one workload. Unknown workload names come back as an incorrect
/// result with an error line.
BenchResult RunBenchmark(const BenchOptions& options);

/// steady_clock now, in seconds.
double SteadySeconds();

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOADS_H_
