#include "checks.h"

#include "util/strings.h"

namespace pipebench {

using kernelgpt::util::Format;

std::vector<uint64_t>
CorpusHashes(const std::vector<kernelgpt::fuzzer::Prog>& corpus)
{
  std::vector<uint64_t> out;
  out.reserve(corpus.size());
  for (const kernelgpt::fuzzer::Prog& p : corpus) {
    out.push_back(kernelgpt::fuzzer::HashProg(p));
  }
  return out;
}

SuiteOutcome
OutcomeOf(const kernelgpt::fuzzer::SuiteState& state)
{
  SuiteOutcome out;
  out.coverage_blocks = state.coverage.Count();
  for (const auto& [title, count] : state.crashes) {
    out.crash_titles.push_back(title);
  }
  out.corpus_hashes = CorpusHashes(state.corpus);
  out.programs_executed = state.programs_executed;
  if (!state.rounds.empty()) out.divergences = state.rounds.back().divergences;
  return out;
}

std::string
Diff(const SuiteOutcome& want, const SuiteOutcome& got)
{
  if (want.coverage_blocks != got.coverage_blocks) {
    return Format("coverage %zu blocks vs %zu", want.coverage_blocks,
                  got.coverage_blocks);
  }
  if (want.crash_titles != got.crash_titles) {
    return Format("crash titles differ (%zu vs %zu titles)",
                  want.crash_titles.size(), got.crash_titles.size());
  }
  if (want.corpus_hashes != got.corpus_hashes) {
    return Format("corpus hashes differ (%zu vs %zu programs)",
                  want.corpus_hashes.size(), got.corpus_hashes.size());
  }
  if (want.programs_executed != got.programs_executed) {
    return Format("programs executed %zu vs %zu", want.programs_executed,
                  got.programs_executed);
  }
  if (want.divergences != got.divergences) {
    return Format("divergences %zu vs %zu", want.divergences,
                  got.divergences);
  }
  return "";
}

std::string
DiffStates(const kernelgpt::fuzzer::SuiteState& live,
           const kernelgpt::fuzzer::SuiteState& resumed)
{
  if (live.coverage.SortedBlocks() != resumed.coverage.SortedBlocks()) {
    return Format("coverage block ids differ (%zu vs %zu blocks)",
                  live.coverage.Count(), resumed.coverage.Count());
  }
  return Diff(OutcomeOf(live), OutcomeOf(resumed));
}

std::string
DiffOutcomes(const Outcomes& want, const Outcomes& got)
{
  for (const auto& [name, value] : want) {
    auto it = got.find(name);
    if (it == got.end()) return name + " missing";
    if (it->second != value) {
      return Format("%s %.17g vs %.17g", name.c_str(), value, it->second);
    }
  }
  if (got.size() != want.size()) return "outcome sets differ";
  return "";
}

}  // namespace pipebench
