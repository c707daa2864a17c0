/// \file
/// Deterministic, seed-driven fault injection — the substrate every
/// crash/recovery test in this repo is built on. A FaultPlan maps site
/// names (e.g. "fileio.atomic_write", "orchestrator.worker") to rules
/// that say WHEN a fault fires (on the Nth matching call, or with a
/// seeded probability) and WHAT it does (throw, return a util::Status,
/// simulate an errno failure, simulate a process crash, or really
/// _exit). Sites are declared with the KERNELGPT_FAULT_POINT macros
/// threaded through the hot seams: snapshot IO, orchestrator worker
/// bodies, backend queries, and spec-generation tasks.
///
/// Determinism: nth-call rules count only calls whose (site, detail) pair
/// matches the rule, so a rule scoped by detail (a file path, a campaign
/// seed) counts a single deterministic call stream even when unrelated
/// threads hit the same site. Probability rules draw from a hash of
/// (plan seed, site, detail, per-rule match index) — stable across runs
/// and platforms; under concurrency the match-index assignment follows
/// thread scheduling, so scope probabilistic rules by detail too when a
/// test needs bit-for-bit reproducibility.
///
/// Cost: a disarmed fault point is one relaxed atomic load and a
/// predictable branch (BM_FaultPointDisarmed pins it at well under a
/// nanosecond); no strings are built and no locks are taken unless a
/// plan is armed.
///
/// Plans can be armed programmatically (tests) or from the
/// KERNELGPT_FAULT_PLAN environment variable (soak jobs, daemons). Spec
/// grammar — rules separated by ';', key=value fields by ',':
///
///   seed=42;
///   site=fileio.atomic_write,kind=errno,errno=ENOSPC,nth=2,match=tenant_a;
///   site=orchestrator.worker,kind=throw,p=0.25
///
/// Fields: site (required), kind (throw|status|errno|crash|exit; default
/// throw), errno (symbolic or numeric; default EIO), nth (first matching
/// call that fires, 1-based; default 1), times (how many consecutive
/// matching calls fire; -1 = forever; default 1), p (probability per
/// matching call instead of the nth/times window), match (substring the
/// call's detail must contain), msg (custom message text).

#ifndef KERNELGPT_UTIL_FAULT_H_
#define KERNELGPT_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

namespace kernelgpt::util {

/// What an armed rule does when it fires.
enum class FaultKind {
  kThrow,   ///< Throw InjectedFault (a worker-level failure).
  kStatus,  ///< Return a Status error from KERNELGPT_FAULT_POINT_STATUS
            ///< sites; throws InjectedFault at throw-only sites.
  kErrno,   ///< Simulate a failing syscall: Status carrying the errno at
            ///< IO sites, InjectedFault naming it at throw-only sites.
  kCrash,   ///< Throw InjectedCrash — "the process died here". A
            ///< supervisor (fuzzer::Fleet) treats it as worker death and
            ///< restarts from the last durable snapshot.
  kExit,    ///< Really _exit(42), for cross-process recovery tests
            ///< (at "fileio.rename": die mid-save, tmp file durable).
};

/// The exception an armed kThrow/kStatus/kErrno rule raises at sites
/// that cannot return a Status.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error(what) {}
};

/// Simulated process death (kCrash). Deliberately NOT an InjectedFault
/// subtype: a supervisor must not "retry" a dead process in place — it
/// rebuilds the tenant and resumes from its snapshot directory.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what)
      : std::runtime_error(what) {}
};

/// One site's firing rule.
struct FaultRule {
  std::string site;          ///< Site name, matched exactly.
  std::string match;         ///< Substring the detail must contain ("" = any).
  FaultKind kind = FaultKind::kThrow;
  int error_number = 0;      ///< errno for kErrno (0 -> EIO).
  int nth = 1;               ///< First matching call that fires (1-based).
  int times = 1;             ///< Matching calls that fire from nth on; -1 = all.
  double probability = -1;   ///< >= 0: per-call seeded draw instead of nth/times.
  std::string message;       ///< Optional extra text for the fault message.
};

/// A seed plus the rule list.
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;
};

/// Process-wide injector. Thread-safe; zero-cost while disarmed.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// True when a plan is armed. The macro's fast path; relaxed is enough
  /// because tests arm/disarm from a quiescent point, never racing the
  /// sites they script.
  static bool Armed() {
    return armed_flag_.load(std::memory_order_relaxed);
  }

  /// Installs `plan`, resetting all match counters and fired tallies.
  void Arm(FaultPlan plan);

  /// Removes the plan; every fault point reverts to zero-cost.
  void Disarm();

  /// Parses the KERNELGPT_FAULT_PLAN grammar (see file comment).
  static Status ParsePlan(const std::string& spec, FaultPlan* out);

  /// Arm(ParsePlan(spec)).
  Status ArmFromSpec(const std::string& spec);

  /// Arms from $KERNELGPT_FAULT_PLAN if it is set and nothing is armed
  /// yet (idempotent; a malformed spec is reported, not fatal — a daemon
  /// must not die to a typo in an env var). Returns true when a plan is
  /// armed after the call.
  bool ArmFromEnvIfPresent(Status* parse_error = nullptr);

  /// Slow path behind KERNELGPT_FAULT_POINT: consults the plan and, if a
  /// rule fires, throws InjectedFault/InjectedCrash or _exit(42)s.
  void Hit(const char* site, const std::string& detail = std::string());

  /// Slow path behind KERNELGPT_FAULT_POINT_STATUS: like Hit, but
  /// kStatus/kErrno faults come back as a Status error (ok() when no
  /// rule fired) so IO call sites surface them exactly like real syscall
  /// failures. `fired_errno` (optional) receives the injected errno so
  /// the caller can run it through its own errno-to-Status mapping.
  Status HitStatus(const char* site, const std::string& detail = std::string(),
                   int* fired_errno = nullptr);

  /// Faults fired at `site` since the plan was armed.
  size_t FiredCount(const std::string& site) const;
  /// Faults fired across all sites since the plan was armed.
  size_t TotalFired() const;

 private:
  FaultInjector() = default;

  struct RuleState {
    FaultRule rule;
    int matches = 0;  ///< Matching calls seen (for nth/times windows).
    int fired = 0;
  };

  /// Decides whether any rule fires for (site, detail); fills `*fired`
  /// with the winning rule. Separated from Hit so both entry points
  /// share one decision path.
  bool Fire(const char* site, const std::string& detail, FaultRule* fired);

  static std::atomic<bool> armed_flag_;

  mutable std::mutex mutex_;
  uint64_t seed_ = 1;
  std::vector<RuleState> rules_;
  std::map<std::string, size_t> fired_by_site_;
  size_t total_fired_ = 0;
};

/// Builds the message an injected fault carries, shared by both entry
/// points so logs read identically whichever path reported it.
std::string FaultMessage(const char* site, const std::string& detail,
                         const FaultRule& rule);

/// Symbolic name ("ENOSPC") for the errno values IO realistically
/// returns; "" when unknown. Shared with the fileio errno-to-Status
/// mapping so recovery logs name the failure class, not just its text.
const char* ErrnoName(int err);

}  // namespace kernelgpt::util

/// Declares a fault site that reports failures by exception (or is
/// allowed to kill the process). `detail` is optional; it is only
/// evaluated when a plan is armed, so passing a Format(...) expression
/// costs nothing in production.
#define KERNELGPT_FAULT_POINT(...)                                       \
  do {                                                                   \
    if (__builtin_expect(::kernelgpt::util::FaultInjector::Armed(), 0))  \
      ::kernelgpt::util::FaultInjector::Instance().Hit(__VA_ARGS__);     \
  } while (0)

/// Declares a fault site inside a function returning util::Status:
/// kStatus/kErrno faults return from the enclosing function with the
/// injected error, exactly as if the underlying IO had failed.
#define KERNELGPT_FAULT_POINT_STATUS(...)                                   \
  do {                                                                      \
    if (__builtin_expect(::kernelgpt::util::FaultInjector::Armed(), 0)) {   \
      ::kernelgpt::util::Status kernelgpt_fault_status =                    \
          ::kernelgpt::util::FaultInjector::Instance().HitStatus(           \
              __VA_ARGS__);                                                 \
      if (!kernelgpt_fault_status.ok()) return kernelgpt_fault_status;      \
    }                                                                       \
  } while (0)

#endif  // KERNELGPT_UTIL_FAULT_H_
