/// \file
/// fuzzer::Fleet — a supervisor that keeps N named Sessions alive at
/// once and drives each toward a target round count under a shared
/// util::RetryPolicy. The failure model mirrors what a real fuzzing
/// daemon faces:
///
///  - A failed round (worker exception, injected fault) is retried in
///    place with bounded deterministic backoff; Session::RunRound is
///    failure-atomic, so a retry re-runs the identical round.
///  - util::InjectedCrash — simulated process death — is never retried
///    in place: the tenant's Session object is torn down, rebuilt from
///    its factory, and resumed from its autosave snapshot directory,
///    exactly as a restarted daemon would. Progress past the last
///    durable save is re-earned deterministically, so a crashed-and-
///    recovered fleet converges bit-identically to a fault-free run
///    (fleet_test pins this).
///  - K consecutive failed incidents quarantine the tenant; its
///    siblings keep running to completion. Nothing a tenant does can
///    abort the fleet.
///  - Degraded-but-alive conditions (a session whose saves fail because
///    its disk is failing) are surfaced in the report, never silently
///    swallowed.
///
/// Determinism: tenants never share mutable state, every tenant runs
/// entirely on one supervisor thread, and the report is keyed by
/// registration order — so FleetReport::Render() is byte-identical
/// whether the fleet runs on 1 supervisor thread or N (fleet_test
/// pins this too). Wall-clock never appears in Render(); backoff is
/// the policy's simulated accounting.
///
/// On Run() the fleet arms a fault plan from $KERNELGPT_FAULT_PLAN if
/// one is present (and nothing is armed yet), so soak jobs can inject
/// faults into an unmodified binary.

#ifndef KERNELGPT_FUZZER_FLEET_H_
#define KERNELGPT_FUZZER_FLEET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fuzzer/session.h"
#include "util/retry.h"

namespace kernelgpt::fuzzer {

/// Fleet parameters, builder-style like SessionOptions.
struct FleetOptions {
  /// Absolute round target per session: the fleet drives every tenant
  /// until Session::rounds_completed() reaches this (a tenant resumed
  /// from a snapshot only re-earns what the crash lost).
  int target_rounds = 2;

  /// Supervisor threads. Tenants are whole-unit work items (one tenant
  /// never spans threads), so any value produces identical reports.
  int supervisor_threads = 1;

  /// Quarantine after this many CONSECUTIVE failed incidents (a round
  /// that exhausted its retries, or a crash) with no successful round
  /// in between. Clamped to >= 1.
  int quarantine_after = 3;

  /// Round-retry policy shared by every tenant (backoff is keyed by
  /// tenant name + round, so streams stay decorrelated).
  util::RetryPolicy retry;

  /// Arm $KERNELGPT_FAULT_PLAN at the start of Run() (idempotent).
  bool arm_env_plan = true;

  FleetOptions& WithTargetRounds(int v) { target_rounds = v; return *this; }
  FleetOptions& WithSupervisorThreads(int v) {
    supervisor_threads = v;
    return *this;
  }
  FleetOptions& WithQuarantineAfter(int v) { quarantine_after = v; return *this; }
  FleetOptions& WithRetryPolicy(util::RetryPolicy v) {
    retry = v;
    return *this;
  }
  FleetOptions& WithEnvPlan(bool v) { arm_env_plan = v; return *this; }
};

/// One tenant's ledger: everything the supervisor observed about it.
struct TenantReport {
  std::string name;
  int rounds_completed = 0;  ///< Final Session::rounds_completed().
  int retries = 0;           ///< In-place round retries (policy attempts).
  int recoveries = 0;        ///< Crash -> rebuild -> resume cycles.
  int failures = 0;          ///< Failed incidents (retry-exhausted rounds + crashes).
  double backoff_ms = 0;     ///< Simulated backoff charged to this tenant.
  bool quarantined = false;
  bool complete = false;     ///< Reached target_rounds.
  std::string last_error;    ///< Last failure/crash message ("" if none).
  /// Degraded-but-alive conditions, first occurrence each, in the order
  /// they were observed (e.g. "snapshot: cannot append ...: ENOSPC ...").
  std::vector<std::string> degraded;
};

/// The whole fleet's outcome. `status` reports fleet-level problems
/// (no tenants, malformed env fault plan); per-tenant trouble lives in
/// the tenant reports and never fails the fleet as a whole.
struct FleetReport {
  util::Status status = util::Status::Ok();
  std::vector<TenantReport> tenants;  ///< Registration order.

  bool AllComplete() const;
  /// Deterministic multi-line rendering — the byte-comparison surface
  /// the determinism tests diff across thread counts and fault plans.
  std::string Render() const;
};

class Fleet {
 public:
  /// Builds a tenant's Session from scratch: constructs it, registers
  /// its suites, configures autosave. Called once at startup and again
  /// after every simulated crash; must be deterministic and must return
  /// nullptr only on misconfiguration (which quarantines the tenant).
  using SessionFactory = std::function<std::unique_ptr<Session>()>;

  explicit Fleet(FleetOptions options);

  /// Registers a named tenant. Names must be unique and non-empty;
  /// sessions start (and resume) in registration order semantics but
  /// run concurrently.
  util::Status AddSession(const std::string& name, SessionFactory factory);

  /// Runs every tenant to target_rounds (or quarantine). Reentrant in
  /// the sense that a second Run() continues from where the sessions
  /// stand (e.g. after raising target_rounds).
  FleetReport Run();

  /// The tenant's live session (nullptr if unknown or its factory
  /// failed). Valid until the fleet is destroyed or the tenant crashes
  /// and is rebuilt; test code inspects final corpora/coverage here.
  const Session* FindSession(const std::string& name) const;

  size_t tenant_count() const { return tenants_.size(); }

 private:
  struct Tenant {
    std::string name;
    SessionFactory factory;
    std::unique_ptr<Session> session;
    TenantReport report;
  };

  /// Builds (or rebuilds) the tenant's session, resuming from its
  /// autosave directory when a committed snapshot exists there.
  util::Status BuildSession(Tenant* t);
  /// Drives one tenant to completion/quarantine. Never throws.
  void RunTenant(Tenant* t);
  /// Records a degraded condition once (dedup by message).
  static void NoteDegraded(TenantReport* report, const std::string& note);

  FleetOptions options_;
  std::vector<Tenant> tenants_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_FLEET_H_
