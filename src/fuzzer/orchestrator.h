/// \file
/// Parallel sharded campaign orchestration — the syzkaller-manager analog
/// for the virtual kernel. A program budget is sharded across N worker
/// threads; each worker owns a private vkernel instance, RNG stream, and
/// seed corpus, and periodically broadcasts its interesting seeds to the
/// other shards at deterministic epoch boundaries. A final merge step
/// unions the per-shard coverage bitmaps and deduplicates crashes
/// globally by title.
///
/// Threading model:
///  - `SpecLibrary` is shared read-only (immutable after Finalize()).
///  - Every mutable object (Kernel, Rng, Generator, Mutator, Executor,
///    Coverage, corpus) is worker-private.
///  - Cross-shard seed exchange happens only at epoch barriers, in shard
///    id order, so results are deterministic for a fixed (seed, workers,
///    sync_interval) triple regardless of thread scheduling.
///  - With one worker nothing is exchanged, so the result does not depend
///    on `sync_interval`: any run equals one epoch over the whole budget,
///    which is the plain campaign loop (orchestrator_test pins it).

#ifndef KERNELGPT_FUZZER_ORCHESTRATOR_H_
#define KERNELGPT_FUZZER_ORCHESTRATOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fuzzer/campaign.h"

namespace kernelgpt::fuzzer {

/// Orchestration parameters on top of the per-shard campaign options.
struct OrchestratorOptions {
  /// Base campaign parameters. `campaign.seed` is the master seed;
  /// shard 0 uses it unchanged (one-worker equivalence) and shard k > 0
  /// seeds from util::HashCombine(seed, k). `campaign.program_budget`
  /// is the GLOBAL budget, sharded across workers.
  CampaignOptions campaign;

  /// Worker-thread count; 1 runs the campaign loop with no exchange.
  int num_workers = 1;

  /// Programs each shard executes between cross-shard corpus syncs.
  /// With adaptive sync on, this is the STARTING interval.
  int sync_interval = 512;

  /// Max seeds one shard broadcasts per sync (most recent kept). With
  /// adaptive sync on, this is the STARTING cap.
  size_t max_broadcast_per_sync = 8;

  /// Adaptive sync (off by default — defaults preserve the fixed-interval
  /// behavior bit-for-bit). When on, every epoch's global coverage growth
  /// retunes the next epoch: growth halves the interval and doubles the
  /// broadcast cap (propagate interesting seeds fast while the frontier
  /// moves); a plateau doubles the interval and halves the cap (cut sync
  /// overhead once shards stop finding anything). The controller is a
  /// pure function of deterministically merged per-epoch stats, so every
  /// worker computes the identical schedule and results stay independent
  /// of thread scheduling.
  bool adaptive_sync = false;

  /// Bounds for the adaptive controller (ignored when adaptive_sync is
  /// off). The interval stays in [min_sync_interval, max_sync_interval]
  /// and the broadcast cap in [min_broadcast_per_sync, max_broadcast_cap].
  int min_sync_interval = 64;
  int max_sync_interval = 4096;
  size_t min_broadcast_per_sync = 2;
  size_t max_broadcast_cap = 64;

  /// Builds each worker's private kernel (null: a strict Kernel). Worker
  /// results depend only on the kernel's policy, so any personality
  /// keeps the determinism guarantees.
  vkernel::ModelFactory model_factory;
};

/// Per-shard outcome, reported for observability and tests.
struct ShardStats {
  int shard_id = 0;
  uint64_t shard_seed = 0;
  size_t programs_executed = 0;
  size_t corpus_size = 0;
  size_t coverage_blocks = 0;
  size_t crash_occurrences = 0;
  size_t seeds_broadcast = 0;
  size_t seeds_ingested = 0;
  /// Seed-corpus programs replayed before the epoch loop (see
  /// CampaignOptions::seed_corpus).
  size_t seeds_preloaded = 0;
};

/// One sync epoch as the (possibly adaptive) controller scheduled it.
struct EpochStats {
  int sync_interval = 0;        ///< Programs per shard this epoch.
  size_t broadcast_cap = 0;     ///< Max seeds per shard broadcast.
  /// Sum of per-shard coverage growth this epoch (a block several shards
  /// found counts once per shard — the controller's plateau signal, not
  /// the merged-union delta).
  size_t new_blocks = 0;
};

/// Globally merged outcome of a sharded campaign.
struct OrchestratorResult {
  /// Union of all shard coverage bitmaps.
  vkernel::Coverage coverage;
  /// Crash title -> total occurrence count across shards (titles
  /// deduplicate crashes).
  std::map<std::string, int> crashes;
  size_t programs_executed = 0;
  /// Sum of final shard corpus sizes.
  size_t corpus_size = 0;
  double wall_seconds = 0;
  std::vector<ShardStats> shards;
  /// Final shard corpora concatenated in shard-id order (deterministic) —
  /// the distiller's input for the between-campaign distillation pass.
  std::vector<Prog> corpus;
  /// Per-epoch schedule trace: a constant interval/cap with adaptive sync
  /// off, the controller's actual decisions with it on.
  std::vector<EpochStats> epochs;

  size_t UniqueCrashCount() const { return crashes.size(); }
};

/// Runs sharded campaigns over one spec library.
class Orchestrator {
 public:
  /// Boots one worker-private kernel model (register drivers/socket
  /// families). Called once per worker, possibly concurrently; must only
  /// read shared state.
  using BootFn = std::function<void(vkernel::KernelModel*)>;

  Orchestrator(const SpecLibrary* lib, BootFn boot,
               OrchestratorOptions options);

  /// Runs one sharded campaign to completion (blocks until all workers
  /// join and the merge step finishes).
  OrchestratorResult Run();

  const OrchestratorOptions& options() const { return options_; }

 private:
  const SpecLibrary* lib_;
  BootFn boot_;
  OrchestratorOptions options_;
};

/// Convenience wrapper: boot + run in one call.
OrchestratorResult RunShardedCampaign(const SpecLibrary& lib,
                                      Orchestrator::BootFn boot,
                                      const OrchestratorOptions& options);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_ORCHESTRATOR_H_
