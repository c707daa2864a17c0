// Output checks: the equalities a benchmark run must observe before its
// numbers count. A resumed Session must equal the live one, a traced
// replay must reproduce the untraced round, and every deterministic outcome
// must repeat exactly across the repetitions of one run.

#ifndef PIPEBENCH_CHECKS_H_
#define PIPEBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "fuzzer/session.h"

namespace pipebench {

/// HashProg of every program, in order.
std::vector<uint64_t> CorpusHashes(const std::vector<kernelgpt::fuzzer::Prog>& corpus);

/// The observable state of one suite after a round: what a replay of the
/// round must reproduce and what a resumed session must restore.
struct SuiteOutcome {
  size_t coverage_blocks = 0;
  std::vector<std::string> crash_titles;  ///< Sorted.
  std::vector<uint64_t> corpus_hashes;    ///< In corpus order.
  size_t programs_executed = 0;
  size_t divergences = 0;  ///< The latest round's unique signatures.
};

SuiteOutcome OutcomeOf(const kernelgpt::fuzzer::SuiteState& state);

/// Compares two outcomes field by field. Returns "" when equal, otherwise
/// a message naming the first field that differs.
std::string Diff(const SuiteOutcome& want, const SuiteOutcome& got);

/// Full resumed-vs-live comparison: coverage block ids, crash titles,
/// corpus hashes and programs executed. "" when equal.
std::string DiffStates(const kernelgpt::fuzzer::SuiteState& live,
                       const kernelgpt::fuzzer::SuiteState& resumed);

/// Named deterministic values of one repetition (coverage_blocks,
/// unique_crashes, ...). Every repetition of a run must produce the same.
using Outcomes = std::map<std::string, double>;

/// "" when `got` equals `want` key for key, else the first difference.
std::string DiffOutcomes(const Outcomes& want, const Outcomes& got);

}  // namespace pipebench

#endif  // PIPEBENCH_CHECKS_H_
