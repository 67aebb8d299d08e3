/**
 * Bit-exact golden TrainRunReports.
 *
 * Each expected value is an IEEE-754 bit pattern (or an exact counter)
 * captured from the simulator while runWithInterval still kept every
 * coverage stage as three hand-moved locals and every outage, save and
 * recovery price as its own hand-copied block. Pinning the bits (not a
 * tolerance) means a refactor of the run loop that reorders one
 * floating-point addition, or moves one second between buckets, fails
 * here instead of silently moving the goodput tables.
 *
 * The adaptive_regrow row, captured later, pins a placement-aware spare
 * pool refilled through the regrow branch. The tiered_shrink_restart
 * row, captured after it, pins tier writes and restores priced at a
 * shrunk DP width.
 *
 * One value has moved on purpose since the capture: the HbmPeer
 * tier_restore_seconds of tiered_partial_restart, whose one shrink now
 * attributes its priced restore critical path instead of the total
 * outage minus the re-init (a subtraction that lost low bits).
 *
 * A mismatch prints the whole actual row in the same initializer form,
 * so a change that is meant to move the numbers can be recaptured and
 * reviewed field by field.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "llm4d/sim/train_run_sim.h"

namespace llm4d {
namespace {

/** Disable every stochastic failure class. */
void
quiet(TrainRunConfig &cfg)
{
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 0.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
}

/** 48-sequence global batch on 512 GPUs: dp 4 -> 3 is a legal shrink. */
TrainRunConfig
small512()
{
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    quiet(cfg);
    return cfg;
}

/** 240-sequence global batch at dp 16 on the 16K cluster: dp 16 -> 15
 *  is a legal shrink. */
TrainRunConfig
elastic16k()
{
    TrainRunConfig cfg;
    cfg.job.par = ParallelismConfig{8, 8, 16, 16};
    cfg.job.global_batch_tokens = 240LL * 8192;
    quiet(cfg);
    cfg.checkpoint_interval_steps = 20;
    cfg.policy = RecoveryPolicy::elastic(1);
    cfg.repairs.gpu_repair_mean_hours = 0.2;
    cfg.repairs.host_repair_mean_hours = 0.3;
    return cfg;
}

/** The run configurations, one per name in goldenReports(). */
TrainRunConfig
goldenConfig(const std::string &name)
{
    TrainRunConfig cfg;
    cfg.total_steps = 400;
    cfg.checkpoint_interval_steps = 40;
    if (name == "sync_restart_evict_flap") {
        // Sync saves, full restarts, straggler evictions, link flaps.
        cfg.seed = 42;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 3000.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
        cfg.job.cluster.node.host_mtbf_hours = 6000.0;
        cfg.job.cluster.node.nic_flap_mtbf_hours = 1500.0;
    } else if (name == "async_spare_evict") {
        // Async snapshots, warm-spare swaps, async evictions, flaps.
        cfg.seed = 7;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 3000.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
        cfg.job.cluster.node.host_mtbf_hours = 6000.0;
        cfg.job.cluster.node.nic_flap_mtbf_hours = 1500.0;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.spare_hosts = 8;
        cfg.policy.checkpoint_mode = CheckpointMode::Async;
    } else if (name == "sync_shrink") {
        // One spare, then a DP shrink, then full restarts.
        cfg = small512();
        cfg.total_steps = 1000;
        cfg.checkpoint_interval_steps = 40;
        cfg.seed = 11;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 400.0;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.spare_hosts = 1;
        cfg.policy.allow_dp_shrink = true;
    } else if (name == "async_shrink_regrow") {
        // Async elastic recovery: swaps, shrinks, pool refills, regrows.
        cfg = elastic16k();
        cfg.total_steps = 1600;
        cfg.seed = 1;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
        cfg.policy.allow_regrow = true;
    } else if (name == "tiered_partial_restart") {
        // HBM/NVMe/global tiers, partial restarts, host-crash fallbacks.
        cfg = elastic16k();
        cfg.total_steps = 1200;
        cfg.seed = 3;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
        cfg.job.cluster.node.host_mtbf_hours = 300.0;
        cfg.storage.hier.enabled = true;
        cfg.policy.partial_restart = true;
    } else if (name == "tiered_sync_restart") {
        // Tiers under sync saves and full restarts (host-local restores).
        cfg.seed = 5;
        cfg.checkpoint_interval_steps = 10;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
        cfg.job.cluster.node.host_mtbf_hours = 6000.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
        cfg.storage.hier.enabled = true;
    } else if (name == "tiered_async_global_rollback" ||
               name == "tiered_async_local_rollback") {
        // Async tiers with every stage populated at rollback time. The
        // seeds are chosen so that reassociating the global (seed 2) or
        // the host-local (seed 8) lost-seconds sum moves lost_seconds.
        cfg.seed = name == "tiered_async_global_rollback" ? 2 : 8;
        cfg.checkpoint_interval_steps = 10;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1500.0;
        cfg.job.cluster.node.host_mtbf_hours = 1500.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
        cfg.storage.hier.enabled = true;
        cfg.storage.hier.nvme_every = 2;
        cfg.storage.hier.global_every = 4;
        cfg.policy.checkpoint_mode = CheckpointMode::Async;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.spare_hosts = 4;
    } else if (name == "placement_migration") {
        // Cross-pod swaps priced over the spine, then migrations home.
        quiet(cfg);
        cfg.total_steps = 2000;
        cfg.seed = 2;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.spare_hosts = 8;
        cfg.policy.placement_migration = true;
        cfg.repairs.gpu_repair_mean_hours = 0.2;
        cfg.repairs.host_repair_mean_hours = 0.3;
    } else if (name == "adaptive_regrow") {
        // Placement-aware pool refilled through the regrow branch.
        quiet(cfg);
        cfg.total_steps = 2000;
        cfg.seed = 2;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.spare_hosts = 8;
        cfg.policy.spare_placement = SparePlacementPolicy::Adaptive;
        cfg.policy.placement_migration = true;
        cfg.policy.allow_regrow = true;
        cfg.repairs.gpu_repair_mean_hours = 0.2;
        cfg.repairs.host_repair_mean_hours = 0.3;
    } else if (name == "tiered_shrink_restart") {
        // No spares: a tiered DP shrink from dp 4 to 3 (HBM peer
        // restore), then full restarts that mirror, persist to NVMe and
        // restore from it at the shrunk width.
        cfg = small512();
        cfg.total_steps = 1000;
        cfg.checkpoint_interval_steps = 40;
        cfg.seed = 1;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 400.0;
        cfg.job.cluster.node.host_mtbf_hours = 2000.0;
        cfg.storage.hier.enabled = true;
        cfg.policy.mode = RecoveryMode::WarmSpare;
        cfg.policy.allow_dp_shrink = true;
        cfg.policy.partial_restart = true;
    } else if (name == "async_rebalance") {
        // Straggler rebalance pauses interrupted by fatal faults.
        cfg = small512();
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 32.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 64.0;
        cfg.faults.straggler_speed_lo = 0.35;
        cfg.faults.straggler_speed_hi = 0.35;
        cfg.policy.rebalance_max_residual = 1.3;
        cfg.total_steps = 60;
        cfg.checkpoint_interval_steps = 10;
        cfg.seed = 4;
        cfg.policy.checkpoint_mode = CheckpointMode::Async;
        cfg.policy.straggler_rebalance = true;
    } else if (name == "truncated") {
        // Cut by max_wall_days mid-run, with faults in flight.
        cfg.seed = 42;
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 3000.0;
        cfg.job.cluster.node.nic_flap_mtbf_hours = 1500.0;
        cfg.max_wall_days = 0.01;
    } else {
        ADD_FAILURE() << "unknown golden config " << name;
    }
    return cfg;
}

struct GoldenReport
{
    const char *name;
    /** Bit patterns, in the order of reportDoubles(). */
    std::vector<std::uint64_t> doubles;
    /** Exact values, in the order of reportCounters(). */
    std::vector<std::int64_t> counters;
};

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every double of the report: the time buckets, goodput and tiers. */
std::vector<std::uint64_t>
reportDoubles(const TrainRunReport &r)
{
    return {bits(r.wall_seconds),
            bits(r.ideal_seconds),
            bits(r.productive_seconds),
            bits(r.degraded_seconds),
            bits(r.checkpoint_seconds),
            bits(r.lost_seconds),
            bits(r.detection_seconds),
            bits(r.restart_seconds),
            bits(r.spare_swap_seconds),
            bits(r.shrink_seconds),
            bits(r.regrow_seconds),
            bits(r.drain_stall_seconds),
            bits(r.displacement_seconds),
            bits(r.goodput_tflops_per_gpu),
            bits(r.base_tflops_per_gpu),
            bits(r.availability),
            bits(r.tier_restore_seconds[0]),
            bits(r.tier_restore_seconds[1]),
            bits(r.tier_restore_seconds[2])};
}

/** Every counter of the report, plus the fault timeline's length. */
std::vector<std::int64_t>
reportCounters(const TrainRunReport &r)
{
    return {r.completed ? 1 : 0,
            r.steps_committed,
            r.steps_lost,
            r.restarts,
            r.spare_swaps,
            r.cross_pod_swaps,
            r.placement_migrations,
            r.dp_shrinks,
            r.dp_regrows,
            r.hosts_repaired,
            r.rebalances,
            r.partial_restarts,
            r.tier_fallbacks,
            r.final_dp,
            r.faults.gpu_fatal,
            r.faults.host_crash,
            r.faults.link_flaps,
            r.faults.stragglers,
            static_cast<std::int64_t>(r.timeline.size())};
}

/** The actual row, printed in goldenReports() initializer form. */
std::string
asInitializer(const char *name, const TrainRunReport &r)
{
    std::string out = std::string("{\"") + name + "\",\n {";
    char buf[32];
    for (const std::uint64_t b : reportDoubles(r)) {
        std::snprintf(buf, sizeof(buf), "0x%016llxULL, ",
                      static_cast<unsigned long long>(b));
        out += buf;
    }
    out += "},\n {";
    for (const std::int64_t c : reportCounters(r))
        out += std::to_string(c) + ", ";
    return out + "}},";
}

std::vector<GoldenReport>
goldenReports()
{
    return {
        {"sync_restart_evict_flap",
         {0x40b72db238fd88beULL, 0x40a242a99a61c1b7ULL, 0x40a242a99a61c1baULL,
          0x4069236e99ceda3eULL, 0x4057eaece13f4a97ULL, 0x4082473d0b51b5c8ULL,
          0x40878143157fe662ULL, 0x409eaa18fd7b0cdeULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x4065ecaa2714e586ULL, 0x407bd454f1d1f092ULL,
          0x3fd935ca82142fd3ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x40519031a1e39511ULL},
         {1, 400, 94, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 6, 1, 14, 5, 26}},
        {"async_spare_evict",
         {0x40bc118fd43520f5ULL, 0x40a242a99a61c1b7ULL, 0x40a242a99a61c1baULL,
          0x40720f37b217a03bULL, 0x401a62ed405fc184ULL, 0x409517a688c513b4ULL,
          0x408b300000000000ULL, 0x409a0f69fd8b97b4ULL, 0x4083c83643e22d06ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x403fe3e681a9b8ccULL,
          0x0000000000000000ULL, 0x40621ad419683cc5ULL, 0x407bd454f1d1f092ULL,
          0x3fd4d16a095802caULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x4058e19ba557bdd6ULL},
         {1, 400, 180, 9, 8, 0, 0, 0, 0, 0, 0, 0, 0, 128, 11, 2, 26, 4, 43}},
        {"sync_shrink",
         {0x40c304767f3af5c2ULL, 0x40b4b29f157d8c9cULL, 0x40b4b29f157d8c9fULL,
          0x406014931800b81aULL, 0x40a368c6fe56b296ULL, 0x408ab153aec73a66ULL,
          0x4062c00000000000ULL, 0x4083a3adee77b41dULL, 0x4059ca4231093d84ULL,
          0x40565f2526948af9ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x40690d2f88ddc312ULL, 0x4077048b19111896ULL,
          0x3fe169e81e411a71ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x4061a36b65adb4b4ULL},
         {1, 1000, 144, 3, 1, 0, 0, 1, 0, 0, 0, 0, 0, 3, 5, 0, 0, 0, 5}},
        {"async_shrink_regrow",
         {0x40b41e2caf2180afULL, 0x40a00e821b5e84dcULL, 0x40a00e821b5e84e0ULL,
          0x40432ec606c54037ULL, 0x4044d19d551bcc6fULL, 0x405c90ff069e469dULL,
          0x408628984e8c18ecULL, 0x408ba02b678cf290ULL, 0x407e3b81c994f021ULL,
          0x407bd790fefb656aULL, 0x40773fc739cf03b2ULL, 0x4019831ece2160a3ULL,
          0x0000000000000000ULL, 0x4057ae6354acfa16ULL, 0x406dabbdbab31933ULL,
          0x3fd98a47b065c8e1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x4061a19c6b8a1f7bULL},
         {1, 1600, 81, 7, 10, 0, 0, 7, 7, 17, 0, 0, 0, 16, 24, 0, 0, 0, 24}},
        {"tiered_partial_restart",
         {0x40bece446df9d454ULL, 0x409815c3290dc74aULL, 0x409815c3290dc747ULL,
          0x40291e081fc51984ULL, 0x4040df1ca1a8acd3ULL, 0x4091fedb38977d4cULL,
          0x40921bd9d325beb4ULL, 0x40ae802c730e1c02ULL, 0x4030c0cdca1a3758ULL,
          0x404e3c5f4a1b77c3ULL, 0x0000000000000000ULL, 0x401a25763134ab59ULL,
          0x0000000000000000ULL, 0x4047329e647c9e97ULL, 0x406dabbdbab31933ULL,
          0x3fc904cb82f5f88eULL, 0x3ffbae4c624d34e3ULL, 0x404b9663a3fba6fcULL,
          0x405792bc5b9feac0ULL},
         {1, 1200, 882, 44, 1, 0, 0, 1, 0, 0, 0, 2, 16, 15, 30, 16, 0, 0, 46}},
        {"tiered_sync_restart",
         {0x40afe1c3cee1b625ULL, 0x40a242a99a61c1b7ULL, 0x40a242a99a61c1b6ULL,
          0x403f6fbe4f442f2aULL, 0x4043872c9bacfb7eULL, 0x40787364d0cd404aULL,
          0x406e01564e0ef076ULL, 0x409047380cecab16ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x406fe0f1469ddaf8ULL, 0x407bd454f1d1f092ULL,
          0x3fe253facf1c217fULL, 0x0000000000000000ULL, 0x402f544980a78540ULL,
          0x0000000000000000ULL},
         {1, 400, 63, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 7, 0, 0, 1, 8}},
        {"tiered_async_global_rollback",
         {0x40b91157278c6543ULL, 0x40a242a99a61c1b7ULL, 0x40a242a99a61c1b5ULL,
          0x40577f55438b4d53ULL, 0x403d051e507fbdf6ULL, 0x407d40e60aedad72ULL,
          0x4090c83a57e272afULL, 0x40a0407d18512705ULL, 0x40721feee431426dULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x404652baf45d348eULL,
          0x0000000000000000ULL, 0x406445aa3ad78ea4ULL, 0x407bd454f1d1f092ULL,
          0x3fd74f6651165b92ULL, 0x0000000000000000ULL, 0x403d5f04e89d0cecULL,
          0x40447d8f3cded894ULL},
         {1, 400, 75, 18, 4, 0, 0, 0, 0, 0, 0, 0, 4, 128, 12, 4, 0, 6, 22}},
        {"tiered_async_local_rollback",
         {0x40be04ce3b4ae6a6ULL, 0x40a242a99a61c1b7ULL, 0x40a242a99a61c1b6ULL,
          0x405247f543979e89ULL, 0x403ce957975ab77bULL, 0x407ba7fa408133ebULL,
          0x4094de622c12e10aULL, 0x40a8d3038532eb77ULL, 0x406ea61b3c8b3a74ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x404652baf45d348eULL,
          0x0000000000000000ULL, 0x4060edba06445837ULL, 0x407bd454f1d1f092ULL,
          0x3fd3773045566e87ULL, 0x0000000000000000ULL, 0x404f544980a78540ULL,
          0x403d45a80dd0a31cULL},
         {1, 400, 65, 33, 4, 0, 0, 0, 0, 0, 0, 0, 1, 128, 30, 1, 0, 6, 37}},
        {"placement_migration",
         {0x40e09dcf4bedee75ULL, 0x40c6d35400fa3225ULL, 0x40c6d35400fa3223ULL,
          0x40b209bb24f74315ULL, 0x4073ee70110a1382ULL, 0x40be659b2f5e3501ULL,
          0x40a095184c7bbfcfULL, 0x40873b5766bed0e1ULL, 0x40b39daf1c785ffbULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x409b27bb61f285b9ULL, 0x40631d3cf94b114eULL, 0x407bd454f1d1f092ULL,
          0x3fd5fa8cba4c31c3ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x407a584a72d55f92ULL},
         {1, 2000, 882, 4, 68, 68, 65, 0, 0, 65, 0, 0, 0, 128, 72, 0, 0, 0, 72}},
        {"adaptive_regrow",
         {0x40da151e9cbef823ULL, 0x40c6d35400fa3225ULL, 0x40c6d35400fa3223ULL,
          0x40a2bd53fda1268dULL, 0x4073ee70110a1382ULL, 0x40b5fd2fd5ddbc91ULL,
          0x40970b5240f125b6ULL, 0x40873b5766bed0e1ULL, 0x40ab394061a651fcULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x408e618f6ad25bd6ULL, 0x40685ab217da385aULL, 0x407bd454f1d1f092ULL,
          0x3fdc010a7fec8f52ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x40724b8908a265f2ULL},
         {1, 2000, 727, 4, 46, 26, 24, 0, 0, 43, 0, 0, 0, 128, 50, 0, 0, 0, 50}},
        {"tiered_shrink_restart",
         {0x40bf9679391cbd62ULL, 0x40b4b29f157d8c9cULL, 0x40b4b29f157d8c9cULL,
          0x4059d26f90f630acULL, 0x40735bd8ee930298ULL, 0x40996c8824e53682ULL,
          0x405e000000000000ULL, 0x4081b9d376c77957ULL, 0x0000000000000000ULL,
          0x404e3b2f2c3752f1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x406e2a1e86e25c68ULL, 0x4077048b19111896ULL,
          0x3fe4f7c461b67ceeULL, 0x3fdd97961ba9789cULL, 0x403b3a6ed8ef2aeeULL,
          0x0000000000000000ULL},
         {1, 1000, 299, 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 3, 4, 0, 0, 0, 4}},
        {"async_rebalance",
         {0x409c9056de0ed84fULL, 0x4073dead3359ceaaULL, 0x4073dead3359ceaaULL,
          0x404e2ac68eabf915ULL, 0x40179c18a4e78081ULL, 0x406947cdf53538b0ULL,
          0x407551df83f2be4eULL, 0x4087713a9bb68a64ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x4062cd52b4f8f098ULL,
          0x0000000000000000ULL, 0x405003066a9543fdULL, 0x4077048b19111896ULL,
          0x3fc642981d06ec20ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x40615ec6931bb88cULL},
         {1, 60, 27, 6, 0, 0, 0, 0, 0, 0, 2, 0, 0, 4, 6, 0, 0, 2, 8}},
        {"truncated",
         {0x408bb78652ef07adULL, 0x40a242a99a61c1b7ULL, 0x407d3775c3cf9c5dULL,
          0x0000000000000000ULL, 0x4029831ece2160a3ULL, 0x4067dba4707750b9ULL,
          0x403e000000000000ULL, 0x40673b5766bed0e1ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x0000000000000000ULL, 0x406d55d36c2f3a50ULL, 0x407bd454f1d1f092ULL,
          0x3fe0dda1ed258070ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
          0x40176aecd7da1c16ULL},
         {0, 80, 32, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 1, 0, 1, 0, 2}},
    };
}

TEST(TrainRunSimGolden, ReportsAreBitIdentical)
{
    const std::vector<GoldenReport> golden = goldenReports();
    ASSERT_EQ(golden.size(), 13u);
    for (const GoldenReport &want : golden) {
        SCOPED_TRACE(want.name);
        const TrainRunReport rep = TrainRunSim(goldenConfig(want.name)).run();
        EXPECT_EQ(reportDoubles(rep), want.doubles)
            << asInitializer(want.name, rep);
        EXPECT_EQ(reportCounters(rep), want.counters)
            << asInitializer(want.name, rep);
    }
}

TEST(TrainRunSimGolden, TieredShrinkRestartRunsAtTheShrunkWidth)
{
    // The row pins shrunk-width tier prices only while its run shrinks
    // and then restarts at the shrunk width.
    const TrainRunReport rep =
        TrainRunSim(goldenConfig("tiered_shrink_restart")).run();
    EXPECT_GE(rep.dp_shrinks, 1);
    EXPECT_GE(rep.restarts, 1);
}

} // namespace
} // namespace llm4d
