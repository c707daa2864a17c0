#include "fuzzer/fleet.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <utility>

#include "util/fault.h"
#include "util/strings.h"

namespace kernelgpt::fuzzer {
namespace {

/// A committed snapshot lives wherever a manifest does — the manifest
/// rename is the Session layer's commit point, so its presence is the
/// resume test.
bool
SnapshotExists(const std::string& dir)
{
  if (dir.empty()) return false;
  std::error_code ec;
  return std::filesystem::exists(dir + "/session.manifest", ec);
}

}  // namespace

bool
FleetReport::AllComplete() const
{
  if (!status.ok() || tenants.empty()) return false;
  for (const TenantReport& t : tenants) {
    if (!t.complete) return false;
  }
  return true;
}

std::string
FleetReport::Render() const
{
  int complete = 0;
  int quarantined = 0;
  for (const TenantReport& t : tenants) {
    if (t.complete) ++complete;
    if (t.quarantined) ++quarantined;
  }
  std::string out = util::Format(
      "fleet: %zu tenants, %d complete, %d quarantined\n", tenants.size(),
      complete, quarantined);
  if (!status.ok()) {
    out += util::Format("fleet error: %s\n", status.message().c_str());
  }
  for (const TenantReport& t : tenants) {
    out += util::Format(
        "tenant '%s': rounds=%d complete=%s quarantined=%s retries=%d "
        "recoveries=%d failures=%d backoff_ms=%.3f\n",
        t.name.c_str(), t.rounds_completed, t.complete ? "yes" : "no",
        t.quarantined ? "yes" : "no", t.retries, t.recoveries, t.failures,
        t.backoff_ms);
    if (!t.last_error.empty()) {
      out += util::Format("  last_error: %s\n", t.last_error.c_str());
    }
    for (const std::string& note : t.degraded) {
      out += util::Format("  degraded: %s\n", note.c_str());
    }
  }
  return out;
}

Fleet::Fleet(FleetOptions options) : options_(std::move(options))
{
  if (options_.target_rounds < 0) options_.target_rounds = 0;
  if (options_.supervisor_threads < 1) options_.supervisor_threads = 1;
  if (options_.quarantine_after < 1) options_.quarantine_after = 1;
}

util::Status
Fleet::AddSession(const std::string& name, SessionFactory factory)
{
  if (name.empty()) {
    return util::Status::Error("fleet: tenant name must not be empty");
  }
  for (const Tenant& t : tenants_) {
    if (t.name == name) {
      return util::Status::Error(
          util::Format("fleet: tenant '%s' already registered", name.c_str()));
    }
  }
  if (!factory) {
    return util::Status::Error(util::Format(
        "fleet: tenant '%s' has no session factory", name.c_str()));
  }
  Tenant tenant;
  tenant.name = name;
  tenant.factory = std::move(factory);
  tenant.report.name = name;
  tenants_.push_back(std::move(tenant));
  return util::Status::Ok();
}

util::Status
Fleet::BuildSession(Tenant* t)
{
  std::unique_ptr<Session> session;
  try {
    session = t->factory();
  } catch (const std::exception& ex) {
    return util::Status::Error(util::Format(
        "fleet: tenant '%s' factory failed: %s", t->name.c_str(), ex.what()));
  }
  if (!session) {
    return util::Status::Error(util::Format(
        "fleet: tenant '%s' factory returned no session", t->name.c_str()));
  }
  // Restart-from-snapshot: if the tenant's autosave directory holds a
  // committed snapshot, resume it — both at fleet startup (a restarted
  // daemon) and after a simulated crash. A fresh tenant (no snapshot
  // yet) simply starts from round 0.
  const std::string& dir = session->options().autosave_dir;
  if (SnapshotExists(dir)) {
    try {
      util::Status resumed = session->Resume(dir);
      if (!resumed.ok()) {
        return util::Status::Error(util::Format(
            "fleet: tenant '%s' cannot resume from '%s': %s",
            t->name.c_str(), dir.c_str(), resumed.message().c_str()));
      }
    } catch (const std::exception& ex) {
      // Even a crash injected into the resume path must not take the
      // supervisor down; it becomes a failed incident like any other.
      return util::Status::Error(util::Format(
          "fleet: tenant '%s' died resuming from '%s': %s", t->name.c_str(),
          dir.c_str(), ex.what()));
    }
  }
  t->session = std::move(session);
  return util::Status::Ok();
}

void
Fleet::NoteDegraded(TenantReport* report, const std::string& note)
{
  for (const std::string& existing : report->degraded) {
    if (existing == note) return;
  }
  report->degraded.push_back(note);
}

void
Fleet::RunTenant(Tenant* t)
{
  TenantReport& report = t->report;
  int consecutive = 0;

  // One "incident" = a round that exhausted its retries, a crash, or a
  // failed rebuild. Quarantine trips on consecutive incidents with no
  // completed round in between.
  auto fail_incident = [&](const std::string& message) {
    ++report.failures;
    ++consecutive;
    report.last_error = message;
    if (consecutive >= options_.quarantine_after) {
      report.quarantined = true;
      NoteDegraded(&report,
                   util::Format("quarantined after %d consecutive incidents",
                                consecutive));
    }
  };

  if (!t->session) {
    util::Status built = BuildSession(t);
    if (!built.ok()) {
      // No session, nothing to retry against: quarantine immediately.
      fail_incident(built.message());
      report.quarantined = true;
      return;
    }
  }

  while (!report.quarantined &&
         t->session->rounds_completed() < options_.target_rounds) {
    // Keyed by tenant + absolute round index: backoff jitter streams are
    // decorrelated between tenants and stable across crash recoveries
    // (a re-earned round re-draws the same backoff).
    const std::string key =
        util::Format("%s/round-%d", t->name.c_str(),
                     t->session->rounds_completed());
    try {
      util::RetryResult r = util::RunWithRetry(
          options_.retry, key,
          [&](int) { return t->session->RunRound(); });
      report.retries += r.retries;
      report.backoff_ms += r.backoff_ms;
      if (r.ok()) {
        consecutive = 0;
        // Alive but degraded: the session's saves are failing, so its
        // durability lags its live state. Report it; the session keeps
        // retrying the save on its own schedule.
        if (t->session->save_failures() > 0 &&
            !t->session->last_save_error().empty()) {
          NoteDegraded(&report,
                       "snapshot: " + t->session->last_save_error());
        }
      } else {
        fail_incident(r.status.message());
      }
    } catch (const util::InjectedCrash& crash) {
      // Simulated process death. Never retried in place: tear the
      // session down and restart it from the last durable snapshot,
      // exactly as a supervisor restarting a dead daemon would. The
      // rounds lost since that snapshot are re-earned deterministically,
      // so the recovered tenant converges on the fault-free result.
      ++report.recoveries;
      fail_incident(crash.what());
      if (report.quarantined) break;
      t->session.reset();
      util::Status rebuilt = BuildSession(t);
      if (!rebuilt.ok()) {
        fail_incident(rebuilt.message());
        report.quarantined = true;
        break;
      }
    } catch (const std::exception& ex) {
      // Any other escape (e.g. an injected throw inside the autosave
      // path, after the round committed) is an incident, not a fleet
      // abort. The loop re-reads rounds_completed(), so a round that DID
      // commit before throwing is never run twice.
      fail_incident(ex.what());
    }
  }

  report.rounds_completed =
      t->session ? t->session->rounds_completed() : 0;
  report.complete = !report.quarantined &&
                    report.rounds_completed >= options_.target_rounds;
}

FleetReport
Fleet::Run()
{
  FleetReport report;
  if (tenants_.empty()) {
    report.status = util::Status::Error("fleet: no sessions registered");
    return report;
  }
  if (options_.arm_env_plan) {
    // A malformed env plan is reported but does not stop the fleet — a
    // daemon must not die to a typo in an environment variable.
    util::Status parse_error = util::Status::Ok();
    util::FaultInjector::Instance().ArmFromEnvIfPresent(&parse_error);
    if (!parse_error.ok()) report.status = parse_error;
  }

  const int threads =
      std::min<int>(options_.supervisor_threads,
                    static_cast<int>(tenants_.size()));
  if (threads <= 1) {
    for (Tenant& t : tenants_) RunTenant(&t);
  } else {
    // Tenants are whole-unit work items claimed off a shared counter;
    // no tenant state is shared, so thread count cannot change any
    // tenant's outcome — only which thread happens to host it.
    std::atomic<size_t> next{0};
    auto supervisor = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= tenants_.size()) return;
        RunTenant(&tenants_[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(supervisor);
    for (std::thread& th : pool) th.join();
  }

  for (Tenant& t : tenants_) report.tenants.push_back(t.report);
  return report;
}

const Session*
Fleet::FindSession(const std::string& name) const
{
  for (const Tenant& t : tenants_) {
    if (t.name == name) return t.session.get();
  }
  return nullptr;
}

}  // namespace kernelgpt::fuzzer
