#include "spans.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/fileio.h"

namespace pipebench {

int
SpanRecorder::Begin(const std::string& name, int round)
{
  Span span;
  span.parent = current_.load();
  span.round = round >= 0 ? round : current_round_.load();
  span.name = name;
  span.start = Now();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = span.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  current_.store(id);
  if (round >= 0) current_round_.store(round);
  return id;
}

void
SpanRecorder::End(int id)
{
  const double end = Now();
  int parent;
  int parent_round = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = end;
    parent = span.parent;
    if (parent >= 0) parent_round = spans_[static_cast<size_t>(parent)].round;
  }
  current_.store(parent);
  current_round_.store(parent_round);
}

void
SpanRecorder::Record(const std::string& name, double start, double end)
{
  Span span;
  span.parent = current_.load();
  span.round = current_round_.load();
  span.name = name;
  span.start = start;
  span.end = end;
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::Snapshot() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

kernelgpt::util::Status
SpanRecorder::WriteJson(const std::string& path) const
{
  std::ostringstream out;
  out << "{\"spans\": [\n";
  const std::vector<Span> spans = Snapshot();
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %d, \"parent\": %d, \"round\": %d, "
                  "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}%s\n",
                  s.id, s.parent, s.round, s.name.c_str(), s.start, s.end,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return kernelgpt::util::AtomicWriteFile(path, out.str());
}

kernelgpt::fuzzer::Orchestrator::BootFn
TimedBoot(kernelgpt::fuzzer::Orchestrator::BootFn boot, SpanRecorder* rec)
{
  if (!rec) return boot;
  return [boot = std::move(boot), rec](kernelgpt::vkernel::KernelModel* k) {
    const double start = rec->Now();
    boot(k);
    rec->Record("boot", start, rec->Now());
  };
}

std::vector<Span>
Select(const std::vector<Span>& spans, const std::string& name,
       const std::string& parent_name)
{
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (!parent_name.empty() &&
        (s.parent < 0 ||
         spans[static_cast<size_t>(s.parent)].name != parent_name)) {
      continue;
    }
    out.push_back(s);
  }
  return out;
}

double
TotalSeconds(const std::vector<Span>& spans)
{
  double total = 0;
  for (const Span& s : spans) total += s.end - s.start;
  return total;
}

std::vector<double>
Durations(const std::vector<Span>& spans)
{
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) out.push_back(s.end - s.start);
  return out;
}

}  // namespace pipebench
