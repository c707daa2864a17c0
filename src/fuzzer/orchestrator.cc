#include "fuzzer/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "util/fault.h"
#include "util/strings.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {

namespace {

/// Reusable N-party barrier (C++17 has no std::barrier).
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  /// Blocks until all parties arrive; reusable across generations.
  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

/// Decorrelates shard RNG streams; shard 0 keeps the master seed, so a
/// one-worker run is the campaign loop on that seed.
/// Other shards hash the pair — adding multiples of the SplitMix64
/// increment would merely offset the master stream, not decorrelate it.
uint64_t
ShardSeed(uint64_t master, int shard)
{
  if (shard == 0) return master;
  return util::HashCombine(master, static_cast<uint64_t>(shard));
}

/// Everything one worker accumulates; read by the merge step after join.
struct ShardOutcome {
  vkernel::Coverage coverage;
  std::map<std::string, int> crashes;
  std::vector<Prog> corpus;
  ShardStats stats;
};

}  // namespace

Orchestrator::Orchestrator(const SpecLibrary* lib, BootFn boot,
                           OrchestratorOptions options)
    : lib_(lib), boot_(std::move(boot)), options_(std::move(options))
{
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.sync_interval < 1) options_.sync_interval = 1;
  if (options_.min_sync_interval < 1) options_.min_sync_interval = 1;
  if (options_.max_sync_interval < options_.min_sync_interval) {
    options_.max_sync_interval = options_.min_sync_interval;
  }
  if (options_.max_broadcast_cap < options_.min_broadcast_per_sync) {
    options_.max_broadcast_cap = options_.min_broadcast_per_sync;
  }
  if (options_.adaptive_sync) {
    // The controller only ever moves within its bounds, so the starting
    // point must sit inside them too.
    options_.sync_interval =
        std::min(std::max(options_.sync_interval, options_.min_sync_interval),
                 options_.max_sync_interval);
    options_.max_broadcast_per_sync =
        std::min(std::max(options_.max_broadcast_per_sync,
                          options_.min_broadcast_per_sync),
                 options_.max_broadcast_cap);
  }
}

OrchestratorResult
Orchestrator::Run()
{
  const auto start = std::chrono::steady_clock::now();
  OrchestratorResult result;
  if (lib_->syscalls().empty()) return result;

  const int workers = options_.num_workers;
  const int budget = options_.campaign.program_budget;

  // Shard the global budget; low shard ids absorb the remainder.
  std::vector<int> shard_budget(workers, budget / workers);
  for (int w = 0; w < budget % workers; ++w) ++shard_budget[w];

  std::vector<ShardOutcome> outcomes(workers);
  // outbox[w] holds shard w's broadcast for the current epoch. Written by
  // shard w between the publish and ingest barriers, read by all other
  // shards between the ingest and next-epoch barriers.
  std::vector<std::vector<Prog>> outbox(workers);
  // epoch_growth[w] is shard w's coverage growth this epoch; same write
  // (pre-publish) / read (publish..ingest) protocol as the outbox. Its
  // deterministic sum drives the adaptive sync controller.
  std::vector<size_t> epoch_growth(workers, 0);
  // Schedule trace; written by shard 0 only, read after the join.
  std::vector<EpochStats> epoch_trace;
  // Worker exceptions (injected faults, bad_alloc, ...). A throwing
  // worker must not strand its peers at a barrier, so it degrades to a
  // no-op participant and the exception resurfaces after the join.
  std::vector<std::exception_ptr> worker_failures(workers);
  Barrier publish_barrier(workers);
  Barrier ingest_barrier(workers);

  auto worker_main = [&](int shard) {
    ShardOutcome& out = outcomes[shard];
    out.stats.shard_id = shard;
    out.stats.shard_seed = ShardSeed(options_.campaign.seed, shard);

    // Worker-private mutable state; `lib_` is the only shared object on
    // the hot path and is immutable after Finalize().
    std::unique_ptr<vkernel::KernelModel> kernel =
        options_.model_factory ? options_.model_factory()
                               : vkernel::MakeStrictModel();
    if (boot_) boot_(kernel.get());
    util::Rng rng(out.stats.shard_seed);
    Generator generator(lib_, &rng);
    Mutator mutator(lib_, &generator, &rng);
    Executor executor(kernel.get(), lib_);
    std::vector<Prog>& corpus = out.corpus;

    CampaignState state;
    state.generator = &generator;
    state.mutator = &mutator;
    state.executor = &executor;
    state.rng = &rng;
    state.corpus = &corpus;
    state.coverage = &out.coverage;
    state.crashes = &out.crashes;
    state.programs_executed = &out.stats.programs_executed;

    // Once a worker fails it stops executing programs but keeps walking
    // the barrier schedule (publishing nothing, ingesting nothing), so
    // its peers never deadlock; the stored exception fails the whole run
    // after the join. The schedule below is a pure function of published
    // epoch stats, so a dead worker computes it like everyone else.
    bool dead = false;
    auto record_failure = [&](std::exception_ptr e) {
      worker_failures[shard] = std::move(e);
      dead = true;
    };

    // Replay the seed corpus (if any) before the loop: primes coverage
    // and seeds the corpus without consuming RNG or budget.
    try {
      out.stats.seeds_preloaded = PrimeCorpus(options_.campaign, state);
    } catch (...) {
      record_failure(std::current_exception());
    }

    // Seeds that found new blocks since the last sync (broadcast pool).
    std::vector<Prog> fresh_interesting;

    // Controller state. Every worker evolves `interval`, `bcast_cap`,
    // and `remaining` identically (pure functions of shared per-epoch
    // stats), so all shards agree on the epoch count and the barriers
    // line up without any extra coordination. With adaptive sync off
    // both stay at their configured values and the schedule is exactly
    // the historical fixed-interval one.
    int interval = options_.sync_interval;
    size_t bcast_cap = options_.max_broadcast_per_sync;
    std::vector<int> remaining = shard_budget;

    auto work_left = [&remaining] {
      for (int r : remaining) {
        if (r > 0) return true;
      }
      return false;
    };

    while (work_left()) {
      const int quota = std::min(interval, remaining[shard]);
      const size_t blocks_before = out.coverage.Count();
      size_t global_growth = 0;
      if (!dead) {
        try {
          // Injectable worker failure (fault plans key on the campaign
          // seed + shard, so a rule can target one round of one session
          // deterministically even under a multi-threaded supervisor).
          KERNELGPT_FAULT_POINT(
              "orchestrator.worker",
              util::Format("seed=%016llx shard=%d",
                           static_cast<unsigned long long>(
                               options_.campaign.seed),
                           shard));
          RunCampaignChunk(options_.campaign, state, quota,
                           workers > 1 ? &fresh_interesting : nullptr);
          global_growth = out.coverage.Count() - blocks_before;
        } catch (...) {
          record_failure(std::current_exception());
          fresh_interesting.clear();
          global_growth = 0;
        }
      }

      if (workers > 1) {
        // -- Corpus sync: publish, barrier, ingest, barrier ----------------
        epoch_growth[shard] = global_growth;
        outbox[shard].clear();
        const size_t n = fresh_interesting.size();
        const size_t take = std::min(n, bcast_cap);
        outbox[shard].assign(fresh_interesting.end() - static_cast<long>(take),
                             fresh_interesting.end());
        out.stats.seeds_broadcast += take;
        fresh_interesting.clear();

        publish_barrier.ArriveAndWait();

        // Deterministic ingest order: peers by shard id, seeds in
        // broadcast order. Only the local corpus and RNG are touched.
        global_growth = 0;
        for (int peer = 0; peer < workers; ++peer) {
          global_growth += epoch_growth[peer];
          if (peer == shard) continue;
          for (const Prog& seed : outbox[peer]) {
            ++out.stats.seeds_ingested;
            AdmitToCorpus(options_.campaign, &rng, &corpus, seed);
          }
        }

        // Nobody may rewrite its outbox (or growth slot) for the next
        // epoch until every peer has finished reading this one.
        ingest_barrier.ArriveAndWait();
      }

      if (shard == 0) {
        epoch_trace.push_back(EpochStats{interval, bcast_cap, global_growth});
      }

      // Close the epoch's books for ALL shards with the interval it ran
      // at, then retune for the next epoch.
      for (int s = 0; s < workers; ++s) {
        remaining[s] -= std::min(interval, remaining[s]);
      }
      if (options_.adaptive_sync) {
        if (global_growth == 0) {
          interval = std::min(interval * 2, options_.max_sync_interval);
          bcast_cap = std::max(bcast_cap / 2, options_.min_broadcast_per_sync);
        } else {
          interval = std::max(interval / 2, options_.min_sync_interval);
          bcast_cap = std::min(bcast_cap * 2, options_.max_broadcast_cap);
        }
      }
    }

    out.stats.corpus_size = corpus.size();
    out.stats.coverage_blocks = out.coverage.Count();
    for (const auto& [title, count] : out.crashes) {
      (void)title;
      out.stats.crash_occurrences += static_cast<size_t>(count);
    }
  };

  if (workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);
    for (auto& t : threads) t.join();
  }

  // Surface the first failure (lowest shard id — deterministic) only
  // after every thread has joined, so no barrier peer is left behind.
  // The partial result is abandoned; a supervisor retries the whole
  // round, which reruns deterministically from the same seed.
  for (const std::exception_ptr& failure : worker_failures) {
    if (failure) std::rethrow_exception(failure);
  }

  // -- Merge step: union coverage, dedup crashes globally by title -------
  for (ShardOutcome& out : outcomes) {
    result.coverage.Merge(out.coverage);
    for (const auto& [title, count] : out.crashes) {
      result.crashes[title] += count;
    }
    result.programs_executed += out.stats.programs_executed;
    result.corpus_size += out.corpus.size();
    result.shards.push_back(out.stats);
    // Concatenate in shard-id order: the distiller's deterministic input.
    result.corpus.insert(result.corpus.end(),
                         std::make_move_iterator(out.corpus.begin()),
                         std::make_move_iterator(out.corpus.end()));
  }
  result.epochs = std::move(epoch_trace);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

OrchestratorResult
RunShardedCampaign(const SpecLibrary& lib, Orchestrator::BootFn boot,
                   const OrchestratorOptions& options)
{
  Orchestrator orchestrator(&lib, std::move(boot), options);
  return orchestrator.Run();
}

}  // namespace kernelgpt::fuzzer
