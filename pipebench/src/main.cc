// pipebench: the repository's end-to-end pipeline benchmark.
//
//   pipebench --workload campaign|oracle-net|specgen --seed N --seconds S
//             --trace 0|1 [--scratch DIR] [--spans FILE]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. See README.md for what each means.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void
Usage()
{
  std::fprintf(stderr,
               "usage: pipebench --workload campaign|oracle-net|specgen "
               "--seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--spans FILE]\n");
}

/// JSON string body for a metric name or error line (names are plain
/// ASCII; escape the two characters JSON requires anyway).
std::string
JsonEscape(const std::string& s)
{
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int
main(int argc, char** argv)
{
  pipebench::BenchOptions options;
  options.process_start = pipebench::SteadySeconds();
  options.scratch_dir = "pipebench-scratch";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--scratch") == 0) {
      options.scratch_dir = value;
    } else if (std::strcmp(flag, "--spans") == 0) {
      options.spans_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload) {
    Usage();
    return 2;
  }

  const pipebench::BenchResult result = pipebench::RunBenchmark(options);

  std::fprintf(stderr, "pipebench %s seed=%" PRIu64 " trace=%d\n",
               options.workload.c_str(), options.seed, options.trace ? 1 : 0);
  for (const pipebench::Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  # %s\n", note.c_str());
  }
  std::fprintf(stderr, "  operations: %ld attempted, %ld failed (fail_ratio %.6f)\n",
               result.ops.attempted, result.ops.failed,
               result.ops.FailRatio());
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "  FAILED: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ops.attempted);
  json += ", \"failed\": " + std::to_string(result.ops.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const pipebench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
