#include "llm4d/sim/train_run_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "llm4d/parallel/parallelism.h"

namespace llm4d {
namespace {

/** Disable every stochastic failure class. */
void
disableAllFaults(TrainRunConfig &cfg)
{
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 0.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
}

/** Production 16K-GPU job, shortened to a test-sized run. */
TrainRunConfig
baseConfig()
{
    TrainRunConfig cfg;
    cfg.total_steps = 400;
    cfg.checkpoint_interval_steps = 40;
    cfg.seed = 42;
    return cfg;
}

double
breakdownSum(const TrainRunReport &rep)
{
    return rep.productive_seconds + rep.degraded_seconds +
           rep.checkpoint_seconds + rep.lost_seconds +
           rep.detection_seconds + rep.restart_seconds +
           rep.spare_swap_seconds + rep.shrink_seconds +
           rep.regrow_seconds + rep.drain_stall_seconds +
           rep.displacement_seconds;
}

/** Faulty 16K-GPU run used by the policy-matrix and determinism tests. */
TrainRunConfig
faultyConfig()
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 400;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 6000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 6000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    return cfg;
}

/** Every field of the two reports, including the fault timeline. */
void
expectBitwiseEqual(const TrainRunReport &a, const TrainRunReport &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.ideal_seconds, b.ideal_seconds);
    EXPECT_EQ(a.goodput_tflops_per_gpu, b.goodput_tflops_per_gpu);
    EXPECT_EQ(a.steps_committed, b.steps_committed);
    EXPECT_EQ(a.steps_lost, b.steps_lost);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.spare_swaps, b.spare_swaps);
    EXPECT_EQ(a.cross_pod_swaps, b.cross_pod_swaps);
    EXPECT_EQ(a.placement_migrations, b.placement_migrations);
    EXPECT_EQ(a.dp_shrinks, b.dp_shrinks);
    EXPECT_EQ(a.dp_regrows, b.dp_regrows);
    EXPECT_EQ(a.hosts_repaired, b.hosts_repaired);
    EXPECT_EQ(a.final_dp, b.final_dp);
    EXPECT_EQ(a.rebalances, b.rebalances);
    EXPECT_EQ(a.productive_seconds, b.productive_seconds);
    EXPECT_EQ(a.degraded_seconds, b.degraded_seconds);
    EXPECT_EQ(a.checkpoint_seconds, b.checkpoint_seconds);
    EXPECT_EQ(a.lost_seconds, b.lost_seconds);
    EXPECT_EQ(a.detection_seconds, b.detection_seconds);
    EXPECT_EQ(a.restart_seconds, b.restart_seconds);
    EXPECT_EQ(a.drain_stall_seconds, b.drain_stall_seconds);
    EXPECT_EQ(a.spare_swap_seconds, b.spare_swap_seconds);
    EXPECT_EQ(a.shrink_seconds, b.shrink_seconds);
    EXPECT_EQ(a.regrow_seconds, b.regrow_seconds);
    EXPECT_EQ(a.displacement_seconds, b.displacement_seconds);
    EXPECT_EQ(a.partial_restarts, b.partial_restarts);
    EXPECT_EQ(a.tier_fallbacks, b.tier_fallbacks);
    for (int t = 0; t < kNumCheckpointTiers; ++t)
        EXPECT_EQ(a.tier_restore_seconds[static_cast<std::size_t>(t)],
                  b.tier_restore_seconds[static_cast<std::size_t>(t)])
            << "tier " << toString(static_cast<CheckpointTier>(t));
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.base_tflops_per_gpu, b.base_tflops_per_gpu);
    EXPECT_EQ(a.faults.gpu_fatal, b.faults.gpu_fatal);
    EXPECT_EQ(a.faults.host_crash, b.faults.host_crash);
    EXPECT_EQ(a.faults.link_flaps, b.faults.link_flaps);
    EXPECT_EQ(a.faults.stragglers, b.faults.stragglers);
    EXPECT_EQ(a.engine_events, b.engine_events);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t k = 0; k < a.timeline.size(); ++k) {
        const FaultEvent &x = a.timeline[k];
        const FaultEvent &y = b.timeline[k];
        EXPECT_EQ(x.kind, y.kind) << "timeline event " << k;
        EXPECT_EQ(x.when, y.when) << "timeline event " << k;
        EXPECT_EQ(x.component, y.component) << "timeline event " << k;
        EXPECT_EQ(x.severity, y.severity) << "timeline event " << k;
        EXPECT_EQ(x.duration, y.duration) << "timeline event " << k;
    }
}

/** tier_restore_seconds accessor by tier, for readable assertions. */
double
tierRestore(const TrainRunReport &rep, CheckpointTier tier)
{
    return rep.tier_restore_seconds[static_cast<std::size_t>(tier)];
}

TEST(TrainRunSim, FaultFreeRunPaysOnlyCheckpoints)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_EQ(rep.restarts, 0);
    EXPECT_EQ(rep.faults.total(), 0);
    EXPECT_TRUE(rep.timeline.empty());
    EXPECT_NEAR(rep.productive_seconds, rep.ideal_seconds,
                1e-6 * rep.ideal_seconds);
    // 400 steps at interval 40: nine interval saves plus the final commit.
    EXPECT_NEAR(rep.checkpoint_seconds,
                10.0 * sim.checkpoint().saveSeconds(), 1e-6);
    EXPECT_NEAR(rep.wall_seconds,
                rep.productive_seconds + rep.checkpoint_seconds,
                1e-6 * rep.wall_seconds);
    EXPECT_DOUBLE_EQ(rep.degraded_seconds, 0.0);
    EXPECT_DOUBLE_EQ(rep.lost_seconds, 0.0);
    // Goodput is the base throughput shaved by checkpoint overhead only.
    EXPECT_LT(rep.goodputFraction(), 1.0);
    EXPECT_GT(rep.goodputFraction(), 0.95);
    EXPECT_GT(rep.availability, 0.95);
}

TEST(TrainRunSim, SavesAndRecoveriesShareOneCheckpointModel)
{
    // The run's saves and its recovery prices read one CheckpointModel
    // per DP width, owned by the recovery cost model.
    const TrainRunConfig cfg = baseConfig();
    const TrainRunSim sim(cfg);
    EXPECT_EQ(&sim.checkpoint(),
              &sim.recovery().checkpointAt(cfg.job.par.dp));
}

TEST(TrainRunSim, RunsAreDeterministic)
{
    // Same config + seed must reproduce the run bit-for-bit, including
    // the fault timeline — the property every debugging replay relies on.
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 300;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 15000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 15000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(cfg).run();
    EXPECT_GT(a.faults.total(), 0) << "config too quiet to test anything";
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.goodput_tflops_per_gpu, b.goodput_tflops_per_gpu);
    EXPECT_EQ(a.steps_committed, b.steps_committed);
    EXPECT_EQ(a.steps_lost, b.steps_lost);
    EXPECT_EQ(a.restarts, b.restarts);
    EXPECT_EQ(a.productive_seconds, b.productive_seconds);
    EXPECT_EQ(a.degraded_seconds, b.degraded_seconds);
    EXPECT_EQ(a.lost_seconds, b.lost_seconds);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].when, b.timeline[i].when);
        EXPECT_EQ(a.timeline[i].kind, b.timeline[i].kind);
        EXPECT_EQ(a.timeline[i].component, b.timeline[i].component);
    }
    // A different fault seed must actually change the run.
    TrainRunConfig other = cfg;
    other.seed = cfg.seed + 1;
    const TrainRunReport c = TrainRunSim(other).run();
    EXPECT_NE(a.wall_seconds, c.wall_seconds);
}

TEST(TrainRunSim, WallClockBreakdownIsComplete)
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 300;
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 15000.0;
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 6000.0;
    cfg.job.cluster.node.host_mtbf_hours = 15000.0;
    cfg.job.cluster.node.nic_flap_mtbf_hours = 3000.0;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.total(), 0);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
}

TEST(TrainRunSim, FatalFaultsLoseWorkAndForceRestarts)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    // Fatal-only, cranked hot: cluster fatal MTBF of ~30 min.
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0;
    cfg.total_steps = 600;
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.gpu_fatal, 0);
    EXPECT_GT(rep.restarts, 0);
    EXPECT_GT(rep.steps_lost, 0);
    EXPECT_GT(rep.lost_seconds, 0.0);
    EXPECT_GT(rep.detection_seconds, 0.0);
    EXPECT_GT(rep.restart_seconds, 0.0);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
    EXPECT_LT(rep.goodputFraction(), 0.95);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
}

TEST(TrainRunSim, StragglersDegradeUntilEvicted)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    // Make detection take a few steps so the drag is visible.
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 300;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.stragglers, 0);
    EXPECT_GT(rep.degraded_seconds, 0.0);
    // Evictions are orderly maintenance restarts: checkpoint first, so
    // nothing is ever rolled back.
    EXPECT_GT(rep.restarts, 0);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_DOUBLE_EQ(rep.lost_seconds, 0.0);
    EXPECT_LT(rep.goodputFraction(), 1.0);
}

TEST(TrainRunSim, LinkFlapsDegradeWithoutKillingTheJob)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.nic_flap_mtbf_hours = 2000.0;
    cfg.total_steps = 300;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.faults.link_flaps, 0);
    EXPECT_GT(rep.degraded_seconds, 0.0);
    EXPECT_EQ(rep.restarts, 0);
    EXPECT_EQ(rep.steps_lost, 0);
    EXPECT_EQ(rep.steps_committed, cfg.total_steps);
}

TEST(TrainRunSim, TruncatesAtWallClockLimit)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.total_steps = 100000;
    cfg.max_wall_days = 0.01; // 864 simulated seconds
    const TrainRunReport rep = TrainRunSim(cfg).run();
    EXPECT_FALSE(rep.completed);
    EXPECT_GT(rep.steps_committed, 0);
    EXPECT_LT(rep.steps_committed, cfg.total_steps);
    const double limit_s = cfg.max_wall_days * 86400.0;
    EXPECT_GE(rep.wall_seconds, limit_s);
    EXPECT_LT(rep.wall_seconds, limit_s * 1.2);
}

TEST(TrainRunSim, OptimalIntervalTracksYoungDaly)
{
    // Acceptance criterion: with work-losing faults only, the empirical
    // goodput-maximizing checkpoint interval lands within 2x of the
    // Young-Daly first-order optimum. Common random numbers (the fault
    // process is exogenous) make the scan an apples-to-apples comparison.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0; // ~30 min MTBF
    cfg.total_steps = 4000;
    cfg.seed = 5;
    const TrainRunSim sim(cfg);
    const std::int64_t yd = sim.youngDalyIntervalSteps();
    ASSERT_GE(yd, 4) << "test config degenerated";
    const std::vector<std::int64_t> intervals = {
        std::max<std::int64_t>(1, yd / 4),
        std::max<std::int64_t>(1, yd / 2), yd, 2 * yd, 4 * yd};
    const auto points = sim.scanCheckpointIntervals(intervals);
    ASSERT_EQ(points.size(), intervals.size());
    const auto best = std::max_element(
        points.begin(), points.end(),
        [](const IntervalScanPoint &a, const IntervalScanPoint &b) {
            return a.goodput_tflops_per_gpu < b.goodput_tflops_per_gpu;
        });
    EXPECT_GE(best->interval_steps, (yd + 1) / 2)
        << "optimum below half the Young-Daly interval";
    EXPECT_LE(best->interval_steps, 2 * yd)
        << "optimum above twice the Young-Daly interval";
    // Over-checkpointing and under-checkpointing must both visibly hurt.
    EXPECT_GT(best->goodput_tflops_per_gpu,
              points.front().goodput_tflops_per_gpu);
    EXPECT_GT(best->goodput_tflops_per_gpu,
              points.back().goodput_tflops_per_gpu);
}

TEST(TrainRunSim, ScaleUpLowersGoodputAtSamePerGpuFailureRate)
{
    // Acceptance criterion: at identical per-component failure rates and
    // identical per-DP-group batch, the 16K-GPU job loses strictly more
    // goodput to failures than the 2K-GPU job (8x the cluster fault rate).
    const auto configure = [](std::int64_t gpus, ParallelismConfig par,
                              std::int64_t batch_tokens) {
        TrainRunConfig cfg;
        cfg.job.cluster = ClusterSpec::llama3Production(gpus);
        cfg.job.par = par;
        cfg.job.global_batch_tokens = batch_tokens;
        disableAllFaults(cfg);
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 4000.0;
        cfg.total_steps = 1200;
        cfg.checkpoint_interval_steps = 40;
        cfg.seed = 9;
        return cfg;
    };
    const TrainRunConfig big =
        configure(16384, ParallelismConfig{8, 1, 16, 128},
                  16LL * 1024 * 1024);
    const TrainRunConfig small =
        configure(2048, ParallelismConfig{8, 1, 16, 16},
                  2LL * 1024 * 1024);
    const TrainRunReport big_rep = TrainRunSim(big).run();
    const TrainRunReport small_rep = TrainRunSim(small).run();
    ASSERT_TRUE(big_rep.completed);
    ASSERT_TRUE(small_rep.completed);
    EXPECT_GT(big_rep.faults.total(), small_rep.faults.total());
    EXPECT_LT(big_rep.goodput_tflops_per_gpu,
              small_rep.goodput_tflops_per_gpu);
    EXPECT_LT(big_rep.goodputFraction(), small_rep.goodputFraction());
    EXPECT_LT(big_rep.availability, small_rep.availability);
}

TEST(TrainRunSim, YoungDalyStepsMatchesClosedForm)
{
    TrainRunConfig cfg = baseConfig();
    const TrainRunSim sim(cfg);
    const double fatal_mtbf_s =
        3600.0 / cfg.job.cluster.fatalFailuresPerHour();
    const double yd_s = youngDalyIntervalSeconds(
        fatal_mtbf_s, sim.checkpoint().saveSeconds());
    const auto expect = std::max<std::int64_t>(
        1, std::llround(yd_s / sim.baseStep().step_seconds));
    EXPECT_EQ(sim.youngDalyIntervalSteps(), expect);
    EXPECT_GT(sim.mtbfSeconds(), 0.0);
}

TEST(TrainRunSim, AsyncCheckpointOverlapsTheDrain)
{
    // Fault-free async run: the step only ever blocks for the DRAM
    // snapshot; the filesystem drain overlaps subsequent steps except
    // for the final, durability-critical one.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    TrainRunConfig async_cfg = cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim sync_sim(cfg);
    const TrainRunSim async_sim(async_cfg);
    const TrainRunReport sync_rep = sync_sim.run();
    const TrainRunReport async_rep = async_sim.run();
    ASSERT_TRUE(async_rep.completed);
    EXPECT_EQ(async_rep.steps_committed, cfg.total_steps);
    EXPECT_EQ(async_rep.steps_lost, 0);
    // 400 steps at interval 40: nine interval snapshots + the final one.
    EXPECT_NEAR(async_rep.checkpoint_seconds,
                10.0 * async_sim.checkpoint().snapshotSeconds(), 1e-6);
    // Only the final drain is on the critical path.
    EXPECT_NEAR(async_rep.drain_stall_seconds,
                async_sim.checkpoint().drainSeconds(), 1e-6);
    // Drain contention slows the overlapped steps a little.
    EXPECT_GT(async_rep.degraded_seconds, 0.0);
    EXPECT_NEAR(breakdownSum(async_rep), async_rep.wall_seconds,
                1e-6 * async_rep.wall_seconds);
    // The headline: async checkpointing strictly beats sync at the same
    // interval, because ~10x less time blocks the step.
    EXPECT_LT(async_rep.wall_seconds, sync_rep.wall_seconds);
    EXPECT_GT(async_rep.goodputFraction(), sync_rep.goodputFraction());
    EXPECT_EQ(async_sim.blockingSaveSeconds(),
              async_sim.checkpoint().snapshotSeconds());
    EXPECT_EQ(sync_sim.blockingSaveSeconds(),
              sync_sim.checkpoint().saveSeconds());
}

TEST(TrainRunSim, FaultFreeStepsRunWithoutOneEventEach)
{
    // Between queued events the steps run inline: a fault-free run
    // needs an Engine event only for its checkpoint writes, not one per
    // step.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_EQ(rep.steps_committed, 400);
    EXPECT_GT(rep.engine_events, 0);
    EXPECT_LE(rep.engine_events * 10, rep.steps_committed)
        << rep.engine_events << " events for " << rep.steps_committed
        << " steps";
}

TEST(TrainRunSim, DrainEndingOnAStepEndRunsBeforeTheNextStep)
{
    // Fault-free async run whose first drain completes on the exact
    // nanosecond a drain-slowed step ends. The drain was scheduled
    // before that step, so FIFO order runs it first and the step after
    // the tie is priced without drain_step_slowdown.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.total_steps = 80;
    cfg.checkpoint_interval_steps = 40;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.storage.async.drain_step_slowdown = 1.5;
    cfg.storage.write_gbps_per_host = 8.0;
    const std::int64_t interval = cfg.checkpoint_interval_steps;

    // Size the barrier so the drain lasts exactly k slowed steps.
    const TrainRunSim probe(cfg);
    const double base_s = probe.baseStep().step_seconds;
    const Time step = secondsToTime(base_s);
    const Time slowed = secondsToTime(base_s * 1.5);
    const double bytes_s =
        probe.checkpoint().drainSeconds() - cfg.storage.barrier_seconds;
    const double slowed_s = timeToSeconds(slowed);
    const auto k =
        static_cast<std::int64_t>(std::ceil(bytes_s / slowed_s)) + 2;
    ASSERT_LT(k, interval) << "the tie must come before the next boundary";
    cfg.storage.barrier_seconds = timeToSeconds(k * slowed) - bytes_s;
    ASSERT_GT(cfg.storage.barrier_seconds, 0.0);

    const TrainRunSim sim(cfg);
    const Time drain = secondsToTime(sim.checkpoint().drainSeconds());
    const Time snapshot = secondsToTime(sim.checkpoint().snapshotSeconds());
    ASSERT_EQ(sim.baseStep().step_seconds, base_s);
    // The tie: the k-th slowed step after the snapshot ends exactly when
    // the drain does.
    ASSERT_EQ(drain, k * slowed);
    ASSERT_NE(step, slowed);

    const TrainRunReport rep = sim.run();
    ASSERT_TRUE(rep.completed);
    // Steps, snapshot, k slowed steps up to the tie, the rest of the
    // second interval at full speed, then the final snapshot and the
    // stall on its drain. Pricing one more step slowed would add
    // slowed - step.
    const Time wall = interval * step + snapshot + k * slowed +
                      (interval - k) * step + snapshot + drain;
    EXPECT_EQ(rep.wall_seconds, timeToSeconds(wall));
    EXPECT_NEAR(rep.degraded_seconds,
                static_cast<double>(k) * (base_s * 1.5 - base_s),
                1e-9 * rep.wall_seconds);
}

TEST(TrainRunSim, PolicyMatrixKeepsInvariantsAndCommonRandomNumbers)
{
    // Every recovery mode x checkpoint mode combination must keep the
    // wall-clock breakdown complete, stay bit-deterministic per seed,
    // and see the identical exogenous fault timeline (common random
    // numbers across policies).
    const TrainRunConfig base = faultyConfig();
    std::vector<TrainRunConfig> combos;
    for (const RecoveryMode mode :
         {RecoveryMode::FullRestart, RecoveryMode::WarmSpare}) {
        for (const CheckpointMode ckpt :
             {CheckpointMode::Sync, CheckpointMode::Async}) {
            TrainRunConfig cfg = base;
            cfg.policy.mode = mode;
            cfg.policy.spare_hosts =
                mode == RecoveryMode::WarmSpare ? 8 : 0;
            cfg.policy.checkpoint_mode = ckpt;
            combos.push_back(cfg);
        }
    }
    std::vector<TrainRunReport> reports;
    for (const TrainRunConfig &cfg : combos) {
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed)
            << toString(cfg.policy.mode) << "/"
            << toString(cfg.policy.checkpoint_mode);
        EXPECT_GT(rep.faults.total(), 0);
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds);
        expectBitwiseEqual(rep, sim.run());
        reports.push_back(rep);
    }
    // Warm-spare runs swap instead of restarting on fatal faults.
    EXPECT_GT(reports[2].spare_swaps + reports[3].spare_swaps, 0);
    // The fault process is exogenous: all policies see the same events.
    for (std::size_t i = 1; i < reports.size(); ++i) {
        const std::size_t n = std::min(reports[0].timeline.size(),
                                       reports[i].timeline.size());
        ASSERT_GT(n, 0u);
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(reports[0].timeline[k].when,
                      reports[i].timeline[k].when);
            EXPECT_EQ(reports[0].timeline[k].kind,
                      reports[i].timeline[k].kind);
            EXPECT_EQ(reports[0].timeline[k].component,
                      reports[i].timeline[k].component);
        }
    }
}

TEST(TrainRunSim, WarmSparesBeatFullRestartsAtScale)
{
    // Acceptance criterion: at 16K GPUs under the default fault tuning
    // and a common random-number fault timeline, warm-spare recovery
    // strictly beats the stop-the-world restart.
    TrainRunConfig full = baseConfig();
    full.total_steps = 4000;
    full.seed = 3;
    TrainRunConfig warm = full;
    warm.policy.mode = RecoveryMode::WarmSpare;
    warm.policy.spare_hosts = 16;
    const TrainRunReport full_rep = TrainRunSim(full).run();
    const TrainRunReport warm_rep = TrainRunSim(warm).run();
    ASSERT_TRUE(full_rep.completed);
    ASSERT_TRUE(warm_rep.completed);
    ASSERT_GT(full_rep.faults.gpu_fatal + full_rep.faults.host_crash, 0)
        << "seed produced no fatal faults; the comparison is vacuous";
    EXPECT_GT(full_rep.restarts, 0);
    EXPECT_GT(warm_rep.spare_swaps, 0);
    EXPECT_EQ(warm_rep.restarts, 0);
    EXPECT_GT(warm_rep.goodput_tflops_per_gpu,
              full_rep.goodput_tflops_per_gpu);
    EXPECT_LT(warm_rep.wall_seconds, full_rep.wall_seconds);
    EXPECT_NEAR(breakdownSum(warm_rep), warm_rep.wall_seconds,
                1e-6 * warm_rep.wall_seconds);
}

TEST(TrainRunSim, AsyncCheckpointingRaisesGoodputUnderFaults)
{
    // Acceptance criterion: async goodput strictly beats sync at the
    // same interval on the same fault timeline.
    TrainRunConfig sync_cfg = baseConfig();
    sync_cfg.total_steps = 1000;
    sync_cfg.seed = 3;
    TrainRunConfig async_cfg = sync_cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunReport sync_rep = TrainRunSim(sync_cfg).run();
    const TrainRunReport async_rep = TrainRunSim(async_cfg).run();
    ASSERT_TRUE(sync_rep.completed);
    ASSERT_TRUE(async_rep.completed);
    EXPECT_GT(async_rep.goodput_tflops_per_gpu,
              sync_rep.goodput_tflops_per_gpu);
    EXPECT_NEAR(breakdownSum(async_rep), async_rep.wall_seconds,
                1e-6 * async_rep.wall_seconds);
}

TEST(TrainRunSim, AsyncOptimalIntervalTracksReducedBlockingCost)
{
    // Under async checkpointing the Young-Daly C is the snapshot (the
    // only step-blocking part), so the optimum interval shrinks by
    // ~sqrt(save/snapshot); the empirical optimum must follow it.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 8192.0; // ~30 min MTBF
    cfg.total_steps = 4000;
    cfg.seed = 5;
    TrainRunConfig async_cfg = cfg;
    async_cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim sync_sim(cfg);
    const TrainRunSim async_sim(async_cfg);
    const std::int64_t yd_sync = sync_sim.youngDalyIntervalSteps();
    const std::int64_t yd = async_sim.youngDalyIntervalSteps();
    EXPECT_LT(yd, yd_sync);
    ASSERT_GE(yd, 2) << "test config degenerated";
    const std::vector<std::int64_t> intervals = {
        std::max<std::int64_t>(1, yd / 4),
        std::max<std::int64_t>(1, yd / 2), yd, 2 * yd, 4 * yd, 8 * yd};
    const auto points = async_sim.scanCheckpointIntervals(intervals);
    const auto best = std::max_element(
        points.begin(), points.end(),
        [](const IntervalScanPoint &a, const IntervalScanPoint &b) {
            return a.goodput_tflops_per_gpu < b.goodput_tflops_per_gpu;
        });
    EXPECT_GE(best->interval_steps, (yd + 1) / 2)
        << "async optimum below half its Young-Daly interval";
    EXPECT_LE(best->interval_steps, 2 * yd)
        << "async optimum above twice its Young-Daly interval";
}

TEST(TrainRunSim, PoolExhaustionDegradesToDpShrink)
{
    // Shrink-friendly job: 48-sequence global batch divides at dp 4, 3,
    // and 2, so dropping one replica group keeps the batch intact.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 400.0;
    cfg.total_steps = 1000;
    cfg.checkpoint_interval_steps = 40;
    cfg.seed = 11;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 1;
    cfg.policy.allow_dp_shrink = true;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal + rep.faults.host_crash, 1)
        << "need at least two fatal faults to exhaust the one spare";
    EXPECT_EQ(rep.spare_swaps, 1);
    EXPECT_GT(rep.dp_shrinks, 0);
    // dp 4 -> 3 is the only legal shrink: at dp 2 the 48-sequence batch
    // would exceed one micro-batch per pipeline stage, so any further
    // fatal fault falls back to a full restart.
    EXPECT_EQ(rep.final_dp, 3);
    EXPECT_EQ(rep.dp_shrinks, 1);
    EXPECT_GT(rep.shrink_seconds, 0.0);
    // Steps after the shrink run the same global batch on fewer
    // replicas, so extra step time accrues as degradation.
    EXPECT_GT(rep.degraded_seconds, 0.0);
    EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                1e-6 * rep.wall_seconds);
    // Same seed without the elastic policy: every fault is a restart.
    TrainRunConfig rigid = cfg;
    rigid.policy = RecoveryPolicy{};
    const TrainRunReport rigid_rep = TrainRunSim(rigid).run();
    ASSERT_TRUE(rigid_rep.completed);
    EXPECT_GT(rigid_rep.restarts, 0);
    EXPECT_EQ(rigid_rep.dp_shrinks, 0);
    EXPECT_EQ(rigid_rep.final_dp, cfg.job.par.dp);
}

TEST(TrainRunSim, ShrinkRestoreIsAttributedAtItsPricedCriticalPath)
{
    // A shrink's restore is attributed to its tier exactly as a swap's
    // is: the priced restore/gather critical path, not the total outage
    // minus the re-init (a subtraction that loses low bits). A
    // shrink-only run (no spares, no regrow, no full restarts) therefore
    // attributes, bit for bit, the in-order sum of its shrinks' critical
    // paths. 12-sequence batch at dp 3: dp 3 -> 2 -> 1 are both legal.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(384);
    cfg.job.par = ParallelismConfig{8, 1, 16, 3};
    cfg.job.global_batch_tokens = 12LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 400.0;
    cfg.total_steps = 600;
    cfg.checkpoint_interval_steps = 40;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.allow_dp_shrink = true;
    int seeds_with_two_shrinks = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        if (rep.restarts > 0)
            continue; // a full restart also attributes a global load
        double expected = 0.0;
        for (std::int64_t k = 1; k <= rep.dp_shrinks; ++k) {
            RecoveryCostRequest req;
            req.kind = RecoveryCostRequest::Kind::Shrink;
            req.to_dp = cfg.job.par.dp - k;
            expected += sim.recovery().price(req).restoreCriticalSeconds();
        }
        EXPECT_EQ(tierRestore(rep, CheckpointTier::Global), expected)
            << "seed " << seed;
        if (rep.dp_shrinks >= 2)
            ++seeds_with_two_shrinks;
    }
    ASSERT_GT(seeds_with_two_shrinks, 0)
        << "sweep too quiet: no seed shrank twice without a restart";
}

/** Shrink-capable 16K job: 240-sequence global batch at dp 16 gives 15
 *  micro-batches, so dp 16 -> 15 stays within one in-flight micro-batch
 *  per pipeline stage (further shrinks fail divisibility). */
TrainRunConfig
elastic16kConfig()
{
    TrainRunConfig cfg;
    cfg.job.par = ParallelismConfig{8, 8, 16, 16};
    cfg.job.global_batch_tokens = 240LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
    // Long enough that the width bought back by a mid-run regrow
    // amortizes the re-shard outage (a late shrink leaves too short a
    // degraded tail for regrow to pay off over a few hundred steps).
    cfg.total_steps = 3600;
    cfg.checkpoint_interval_steps = 20;
    cfg.policy = RecoveryPolicy::elastic(1);
    // Repairs fast enough to come back within the test-sized run.
    cfg.repairs.gpu_repair_mean_hours = 0.2;
    cfg.repairs.host_repair_mean_hours = 0.3;
    return cfg;
}

TEST(TrainRunSim, RegrowBeatsShrinkOnlyUnderCommonRandomNumbers)
{
    // Acceptance criterion: with elastic recovery at the 16K config,
    // every swept seed where the shrink-only run actually shrinks, the
    // regrow run delivers strictly more goodput (same exogenous fault
    // AND repair timelines: common random numbers), and in at least one
    // seed the DP width recovers fully to the configured degree.
    const TrainRunConfig shrink_only = elastic16kConfig();
    TrainRunConfig regrow = shrink_only;
    regrow.policy.allow_regrow = true;
    int seeds_with_shrinks = 0;
    bool recovered_to_full = false;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig a = shrink_only;
        TrainRunConfig b = regrow;
        a.seed = seed;
        b.seed = seed;
        const TrainRunReport sa = TrainRunSim(a).run();
        const TrainRunReport sb = TrainRunSim(b).run();
        ASSERT_TRUE(sa.completed) << "seed " << seed;
        ASSERT_TRUE(sb.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(sa), sa.wall_seconds,
                    1e-6 * sa.wall_seconds)
            << "seed " << seed;
        EXPECT_NEAR(breakdownSum(sb), sb.wall_seconds,
                    1e-6 * sb.wall_seconds)
            << "seed " << seed;
        // CRN: both runs face the identical fault prefix.
        const std::size_t n =
            std::min(sa.timeline.size(), sb.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(sa.timeline[k].when, sb.timeline[k].when);
            EXPECT_EQ(sa.timeline[k].component, sb.timeline[k].component);
        }
        EXPECT_EQ(sb.final_dp,
                  b.job.par.dp - sb.dp_shrinks + sb.dp_regrows)
            << "seed " << seed;
        if (sa.dp_shrinks > 0) {
            ++seeds_with_shrinks;
            // Shrink-only limps at reduced DP forever; regrow buys the
            // width back for a bounded re-shard outage.
            EXPECT_GT(sb.goodput_tflops_per_gpu,
                      sa.goodput_tflops_per_gpu)
                << "seed " << seed;
            EXPECT_EQ(sa.final_dp, a.job.par.dp - sa.dp_shrinks);
        }
        if (sb.dp_regrows > 0 && sb.final_dp == b.job.par.dp)
            recovered_to_full = true;
    }
    ASSERT_GT(seeds_with_shrinks, 0)
        << "sweep too quiet: no seed ever exhausted the pool and shrank";
    EXPECT_TRUE(recovered_to_full)
        << "no swept seed regrew back to the configured DP width";
}

TEST(TrainRunSim, RegrowRefillsTheSparePoolFirst)
{
    // regrow_spares_first: with a pool configured and the DP width
    // intact, repaired hosts park as warm spares (free) instead of
    // forcing a regrow outage — visible as hosts_repaired > 0 with
    // dp_regrows == 0 on runs that never shrank, and as extra swaps
    // beyond the configured pool size.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.policy.allow_regrow = true;
    cfg.policy.allow_dp_shrink = false; // pool is the only elastic path
    // Hot enough that the one-host pool cycles several times.
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    cfg.total_steps = 1200;
    cfg.seed = 2;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal + rep.faults.host_crash, 1)
        << "need repeated fatal faults to cycle the one-host pool";
    EXPECT_GT(rep.hosts_repaired, 0);
    EXPECT_EQ(rep.dp_regrows, 0);
    EXPECT_DOUBLE_EQ(rep.regrow_seconds, 0.0);
    EXPECT_EQ(rep.final_dp, cfg.job.par.dp);
    // The refilled pool absorbs more fatal faults as cheap swaps than
    // the one provisioned spare could.
    EXPECT_GT(rep.spare_swaps, cfg.policy.spare_hosts);
    TrainRunConfig no_regrow = cfg;
    no_regrow.policy.allow_regrow = false;
    const TrainRunReport rigid = TrainRunSim(no_regrow).run();
    ASSERT_TRUE(rigid.completed);
    EXPECT_LE(rigid.spare_swaps, cfg.policy.spare_hosts);
    EXPECT_EQ(rigid.hosts_repaired, 0);
}

TEST(TrainRunSim, RepairShopIsInvisibleWithoutRegrow)
{
    // Back-compat: allow_regrow=false must reproduce pre-repair-shop
    // reports bit-identically. The shop draws from its own RNG streams,
    // so even a wildly different repair tuning cannot perturb a run
    // that never consumes repairs.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    TrainRunConfig other = cfg;
    other.repairs.gpu_repair_mean_hours = 1e-3;
    other.repairs.host_repair_mean_hours = 1e-3;
    other.repairs.requalify_lo = 2.0;
    other.repairs.requalify_hi = 10.0;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(other).run();
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.faults.total(), 0);
    expectBitwiseEqual(a, b);
    EXPECT_EQ(a.hosts_repaired, 0);
    EXPECT_EQ(a.dp_regrows, 0);
    EXPECT_DOUBLE_EQ(a.regrow_seconds, 0.0);
}

TEST(TrainRunSim, RegrowRunsAreDeterministic)
{
    // Seed-swept bit-determinism with the full elastic + regrow stack
    // on: the repair queue, pool refills, and batched re-admissions are
    // all replayable.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.policy.allow_regrow = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        expectBitwiseEqual(sim.run(), sim.run());
    }
}

TEST(TrainRunSim, RebalanceAbsorbsStragglersWithoutEviction)
{
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 3000.0;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 300;
    TrainRunConfig mitigated = cfg;
    mitigated.policy.straggler_rebalance = true;
    const TrainRunReport evicting = TrainRunSim(cfg).run();
    const TrainRunReport rebalanced = TrainRunSim(mitigated).run();
    ASSERT_TRUE(evicting.completed);
    ASSERT_TRUE(rebalanced.completed);
    ASSERT_GT(rebalanced.faults.stragglers, 0);
    // The DP peers have headroom for the shifted micro-batches, so the
    // localized stragglers are absorbed instead of evicted.
    EXPECT_GT(rebalanced.rebalances, 0);
    EXPECT_LT(rebalanced.restarts, evicting.restarts);
    EXPECT_EQ(rebalanced.steps_lost, 0);
    // Residual degradation persists but stays far below the eviction
    // outages it replaces.
    EXPECT_GT(rebalanced.degraded_seconds, 0.0);
    EXPECT_GT(rebalanced.goodput_tflops_per_gpu,
              evicting.goodput_tflops_per_gpu);
    EXPECT_NEAR(breakdownSum(rebalanced), rebalanced.wall_seconds,
                1e-6 * rebalanced.wall_seconds);
}

TEST(TrainRunSim, FatalFaultsDuringAsyncEndgameNeverFakeCompletion)
{
    // Regression: a fatal fault that interrupted the *final* snapshot
    // left `finishing` set across the rollback; the next straggler
    // eviction snapshot then took the finish path in on_drain_done and
    // reported completed=true with steps_committed < total_steps. Make
    // the snapshot long relative to the fatal MTBF (faults land inside
    // the final one) and checkpoint rarely, so the rollback re-executes
    // a wide window in which an eviction snapshot can fire. Sweep seeds.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 32.0;    // ~4 min MTBF
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 8.0; // ~1 min MTBF
    // One mild severity whose detection needs ~58 degraded steps: the
    // straggler is still undetected when the run first reaches
    // total_steps, and its countdown completes during the replayed
    // steps — exactly the eviction-after-rollback endgame under test.
    // Pinning the speed also keeps the degraded-step cache warm.
    cfg.faults.straggler_speed_lo = 0.95;
    cfg.faults.straggler_speed_hi = 0.95;
    cfg.detection.straggler.jitter_sigma = 0.1;
    cfg.total_steps = 60;
    cfg.checkpoint_interval_steps = 30;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.storage.async.snapshot_gbps_per_gpu = 0.1; // ~2 min snapshots
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        cfg.seed = seed;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        if (rep.completed) {
            EXPECT_EQ(rep.steps_committed, cfg.total_steps)
                << "seed " << seed
                << ": run reported complete before committing every step";
        }
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
    }
}

TEST(TrainRunSim, FatalFaultsDuringRebalancePauseRollBack)
{
    // Regression: a fatal fault landing inside a rebalance pause used to
    // take the back-to-back-outage path, which skips rollback() — the
    // uncheckpointed steps survived a host loss and an in-flight drain
    // later committed work whose host state was gone. With the pause
    // treated as a pause (rollback + normal recovery), runs under
    // frequent pauses and hot fatal faults must keep losing work, keep
    // the breakdown complete, and stay deterministic.
    TrainRunConfig cfg;
    cfg.job.cluster = ClusterSpec::llama3Production(512);
    cfg.job.par = ParallelismConfig{8, 1, 16, 4};
    cfg.job.global_batch_tokens = 48LL * 8192;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 32.0;     // ~4 min MTBF
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 64.0; // ~8 min MTBF
    // Severe pinned slowdown, default jitter: localized after one
    // degraded step, so pauses are frequent enough for fatal faults to
    // land inside them. At 0.35 the post-shift residual (4/3.35 ~ 1.19)
    // undercuts the degraded step ratio, and the raised residual cap
    // below keeps rebalance preferred over eviction.
    cfg.faults.straggler_speed_lo = 0.35;
    cfg.faults.straggler_speed_hi = 0.35;
    cfg.policy.rebalance_max_residual = 1.3;
    cfg.total_steps = 60;
    cfg.checkpoint_interval_steps = 10;
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    cfg.policy.straggler_rebalance = true;
    std::int64_t rebalances = 0;
    double lost = 0.0;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        if (rep.completed) {
            EXPECT_EQ(rep.steps_committed, cfg.total_steps)
                << "seed " << seed;
        }
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
        expectBitwiseEqual(rep, sim.run());
        rebalances += rep.rebalances;
        lost += rep.lost_seconds;
    }
    EXPECT_GT(rebalances, 0) << "no pause was ever exercised";
    EXPECT_GT(lost, 0.0) << "fatal faults must keep losing work";
}

TEST(TrainRunSim, AutoIntervalTracksYoungDalyPerMode)
{
    // checkpoint_interval_auto makes checkpointIntervalSteps() the
    // source of truth: it follows the Young–Daly optimum of whatever
    // checkpoint mode the policy selects.
    TrainRunConfig cfg = faultyConfig();
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    const TrainRunSim sync_sim(cfg);
    EXPECT_EQ(sync_sim.checkpointIntervalSteps(),
              sync_sim.youngDalyIntervalSteps());
    cfg.policy.checkpoint_mode = CheckpointMode::Async;
    const TrainRunSim async_sim(cfg);
    EXPECT_EQ(async_sim.checkpointIntervalSteps(),
              async_sim.youngDalyIntervalSteps());
    // Async only blocks for the snapshot, so its optimum is shorter.
    EXPECT_LT(async_sim.checkpointIntervalSteps(),
              sync_sim.checkpointIntervalSteps());
    // run() consumes the same value the accessor reports.
    expectBitwiseEqual(
        async_sim.run(),
        async_sim.runWithInterval(async_sim.checkpointIntervalSteps()));
}

TEST(TrainRunSim, HierarchyIsInvisibleWhenDisabled)
{
    // Back-compat: with storage.hier.enabled=false the simulator must
    // reproduce pre-tier reports bit-identically, no matter how wild
    // the (unread) tier tuning is.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    TrainRunConfig other = cfg;
    other.storage.hier.hbm_barrier_seconds = 42.0;
    other.storage.hier.nvme_write_gbps_per_host = 0.001;
    other.storage.hier.nvme_read_gbps_per_host = 9999.0;
    other.storage.hier.nvme_barrier_seconds = 17.0;
    other.storage.hier.nvme_every = 1;
    other.storage.hier.global_every = 100;
    const TrainRunReport a = TrainRunSim(cfg).run();
    const TrainRunReport b = TrainRunSim(other).run();
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.faults.total(), 0);
    expectBitwiseEqual(a, b);
    EXPECT_EQ(a.partial_restarts, 0);
    EXPECT_EQ(a.tier_fallbacks, 0);
    EXPECT_DOUBLE_EQ(tierRestore(a, CheckpointTier::HbmPeer), 0.0);
    EXPECT_DOUBLE_EQ(tierRestore(a, CheckpointTier::HostLocal), 0.0);
}

TEST(TrainRunSim, HostCrashNeverRestoresFromTiersThatDiedWithTheHost)
{
    // Failure-domain audit, seed-swept: a HostCrash destroys that
    // host's HBM mirrors and NVMe copies, so every restore after one
    // must read the global tier — counted as a tier fallback — and the
    // partial-restart path must never engage.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cfg.job.cluster.node.host_mtbf_hours = 200.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    int seeds_with_crashes = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        const TrainRunReport rep = TrainRunSim(cfg).run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        EXPECT_EQ(rep.faults.gpu_fatal, 0) << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::HbmPeer), 0.0)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::HostLocal), 0.0)
            << "seed " << seed;
        EXPECT_EQ(rep.partial_restarts, 0) << "seed " << seed;
        if (rep.faults.host_crash > 0) {
            ++seeds_with_crashes;
            EXPECT_GT(rep.tier_fallbacks, 0) << "seed " << seed;
            EXPECT_GT(tierRestore(rep, CheckpointTier::Global), 0.0)
                << "seed " << seed;
        }
    }
    ASSERT_GT(seeds_with_crashes, 0)
        << "sweep too quiet: no seed ever crashed a host";
}

TEST(TrainRunSim, PartialRestartSwapsReadTheHbmPeerTier)
{
    // GpuFatal leaves both local tiers intact, so with partial restart
    // on, every warm-spare swap restores from the DP-peer HBM mirror
    // and no restore ever falls back past the local tiers.
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    cfg.seed = 3;
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    ASSERT_GT(rep.faults.gpu_fatal, 0);
    EXPECT_EQ(rep.faults.host_crash, 0);
    EXPECT_GT(rep.partial_restarts, 0);
    EXPECT_GT(tierRestore(rep, CheckpointTier::HbmPeer), 0.0);
    EXPECT_EQ(rep.tier_fallbacks, 0);
    // Swaps and shrinks took the partial path; only out-of-pool full
    // restarts (process teardown survives on NVMe) touch deeper tiers.
    EXPECT_EQ(rep.partial_restarts, rep.spare_swaps + rep.dp_shrinks);
    EXPECT_DOUBLE_EQ(tierRestore(rep, CheckpointTier::Global), 0.0);
}

TEST(TrainRunSim, HierarchicalPartialRestartBeatsGlobalOnlyAt16K)
{
    // Acceptance criterion: at the 16K elastic config, whenever the
    // common-random-numbers timeline delivers a fatal fault, the
    // hierarchical + partial-restart run delivers strictly more goodput
    // than the global-only run. Each arm runs at its own Young-Daly
    // interval (the tiered arm's blocking cost is the cheap HBM
    // mirror), which is how both would be deployed.
    TrainRunConfig global_only = elastic16kConfig();
    global_only.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    int seeds_with_fatals = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig g = global_only;
        g.seed = seed;
        g.checkpoint_interval_steps =
            TrainRunSim(g).youngDalyIntervalSteps();
        TrainRunConfig h = g;
        h.storage.hier.enabled = true;
        h.policy.partial_restart = true;
        h.checkpoint_interval_steps =
            TrainRunSim(h).youngDalyIntervalSteps();
        const TrainRunReport sg = TrainRunSim(g).run();
        const TrainRunReport sh = TrainRunSim(h).run();
        ASSERT_TRUE(sg.completed) << "seed " << seed;
        ASSERT_TRUE(sh.completed) << "seed " << seed;
        // CRN: identical exogenous fault prefix in both arms.
        const std::size_t n =
            std::min(sg.timeline.size(), sh.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(sg.timeline[k].when, sh.timeline[k].when);
            EXPECT_EQ(sg.timeline[k].component, sh.timeline[k].component);
        }
        // The informational tier overlay stays within the audited
        // breakdown buckets it annotates.
        EXPECT_LE(tierRestore(sh, CheckpointTier::HbmPeer) +
                      tierRestore(sh, CheckpointTier::HostLocal) +
                      tierRestore(sh, CheckpointTier::Global),
                  sh.restart_seconds + sh.spare_swap_seconds +
                      sh.shrink_seconds + 1e-9)
            << "seed " << seed;
        if (sg.faults.gpu_fatal + sg.faults.host_crash > 0) {
            ++seeds_with_fatals;
            EXPECT_GT(sh.goodput_tflops_per_gpu,
                      sg.goodput_tflops_per_gpu)
                << "seed " << seed;
        }
    }
    ASSERT_GT(seeds_with_fatals, 0)
        << "sweep too quiet: no seed ever saw a fatal fault";
}

TEST(TrainRunSim, HierarchicalRunsAreDeterministic)
{
    TrainRunConfig cfg = elastic16kConfig();
    cfg.job.cluster.node.host_mtbf_hours = 1500.0;
    cfg.storage.hier.enabled = true;
    cfg.policy.partial_restart = true;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        expectBitwiseEqual(sim.run(), sim.run());
    }
}

TEST(TrainRunSim, PlacementCountersStayZeroOnLegacyConfigs)
{
    // Every pre-placement policy (CentralPool, no migration) must never
    // touch the new counters or the displacement bucket.
    TrainRunConfig cfg = faultyConfig();
    cfg.policy = RecoveryPolicy::elastic(8);
    const TrainRunReport rep = TrainRunSim(cfg).run();
    ASSERT_TRUE(rep.completed);
    EXPECT_GT(rep.spare_swaps, 0);
    EXPECT_EQ(rep.cross_pod_swaps, 0);
    EXPECT_EQ(rep.placement_migrations, 0);
    EXPECT_DOUBLE_EQ(rep.displacement_seconds, 0.0);
}

TEST(TrainRunSim, PodLocalSwapsAreBitIdenticalToLegacyPricing)
{
    // Acceptance criterion: the pod-local spare path reproduces the
    // location-blind pricing exactly. A PerPodReserve run whose every
    // claim lands in the victim's own pod (ample per-pod stock) must be
    // bit-identical to the CentralPool/legacy run on the same seed.
    TrainRunConfig legacy = faultyConfig();
    legacy.policy = RecoveryPolicy::elastic(24);
    TrainRunConfig placed = legacy;
    placed.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    const TrainRunReport a = TrainRunSim(legacy).run();
    const TrainRunReport b = TrainRunSim(placed).run();
    ASSERT_TRUE(a.completed);
    ASSERT_GT(a.spare_swaps, 0) << "seed produced no swaps to compare";
    // 24 spares over 6 pods = 4 per pod: no pod exhausts its reserve
    // in this run, so no claim ever crosses pods.
    ASSERT_EQ(b.cross_pod_swaps, 0)
        << "same-pod fault burst drained a reserve; raise the pool";
    expectBitwiseEqual(a, b);
}

/** Warm-spare 16K run hot enough to exercise the placement machinery. */
TrainRunConfig
placementConfig()
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 2000;
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
    cfg.policy.mode = RecoveryMode::WarmSpare;
    cfg.policy.spare_hosts = 8;
    // Repairs fast enough that displaced ranks can migrate home within
    // the run.
    cfg.repairs.gpu_repair_mean_hours = 0.2;
    cfg.repairs.host_repair_mean_hours = 0.3;
    return cfg;
}

TEST(TrainRunSim, CrossPodSwapsStrictlyDegradeTheRun)
{
    // Acceptance criterion, seed-swept: pricing the central pool's
    // cross-pod swaps (placement_migration turns pricing on; CentralPool
    // parks every spare out-of-pod) strictly degrades the run versus
    // the location-blind model on the same fault timeline.
    int seeds_with_swaps = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        TrainRunConfig legacy = placementConfig();
        legacy.seed = seed;
        TrainRunConfig priced = legacy;
        priced.policy.placement_migration = true;
        const TrainRunReport a = TrainRunSim(legacy).run();
        const TrainRunReport b = TrainRunSim(priced).run();
        ASSERT_TRUE(a.completed) << "seed " << seed;
        ASSERT_TRUE(b.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(b), b.wall_seconds,
                    1e-6 * b.wall_seconds)
            << "seed " << seed;
        // CRN: identical exogenous fault prefix in both arms.
        const std::size_t n =
            std::min(a.timeline.size(), b.timeline.size());
        for (std::size_t k = 0; k < n; ++k) {
            EXPECT_EQ(a.timeline[k].when, b.timeline[k].when);
            EXPECT_EQ(a.timeline[k].component, b.timeline[k].component);
        }
        EXPECT_EQ(a.cross_pod_swaps, 0) << "seed " << seed;
        if (b.spare_swaps == 0)
            continue;
        ++seeds_with_swaps;
        // Every CentralPool claim is cross-pod once placement is priced.
        EXPECT_EQ(b.cross_pod_swaps, b.spare_swaps) << "seed " << seed;
        EXPECT_GT(b.wall_seconds, a.wall_seconds) << "seed " << seed;
        EXPECT_LT(b.goodput_tflops_per_gpu, a.goodput_tflops_per_gpu)
            << "seed " << seed;
        // The displaced rank's spine crossing shows up as degradation
        // (extra step time) until it migrates home.
        EXPECT_GT(b.degraded_seconds, a.degraded_seconds)
            << "seed " << seed;
    }
    ASSERT_GT(seeds_with_swaps, 0)
        << "sweep too quiet: no seed ever consumed a spare";
}

TEST(TrainRunSim, DisplacedRanksMigrateHomeAtCheckpointBoundaries)
{
    // With migration enabled and repairs fast, a displaced rank moves
    // back into its home pod at a checkpoint boundary: counted in
    // placement_migrations, outage charged to displacement_seconds,
    // and the freed cross-pod spare returns to the pool.
    TrainRunConfig cfg = placementConfig();
    cfg.policy.placement_migration = true;
    int seeds_with_migrations = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        cfg.seed = seed;
        const TrainRunSim sim(cfg);
        const TrainRunReport rep = sim.run();
        ASSERT_TRUE(rep.completed) << "seed " << seed;
        EXPECT_NEAR(breakdownSum(rep), rep.wall_seconds,
                    1e-6 * rep.wall_seconds)
            << "seed " << seed;
        EXPECT_LE(rep.placement_migrations, rep.cross_pod_swaps)
            << "seed " << seed;
        expectBitwiseEqual(rep, sim.run());
        if (rep.placement_migrations == 0)
            continue;
        ++seeds_with_migrations;
        EXPECT_GT(rep.displacement_seconds, 0.0) << "seed " << seed;
        EXPECT_GT(rep.hosts_repaired, 0) << "seed " << seed;
    }
    ASSERT_GT(seeds_with_migrations, 0)
        << "sweep too quiet: no displaced rank ever migrated home";
}

TEST(TrainRunSim, PerPodReservesBeatTheCentralPoolOnWornFleets)
{
    // The tentpole claim at run level: on a worn fleet where swaps are
    // frequent, spreading the spares across pods (pod-local claims)
    // strictly beats the central pool (all cross-pod) under CRN.
    TrainRunConfig central = placementConfig();
    central.job.cluster.node.gpu.fatal_mtbf_hours = 1000.0;
    central.policy.spare_hosts = 6; // one per pod when spread
    central.policy.placement_migration = true;
    central.seed = 3;
    TrainRunConfig spread = central;
    spread.policy.spare_placement = SparePlacementPolicy::PerPodReserve;
    const TrainRunReport c = TrainRunSim(central).run();
    const TrainRunReport p = TrainRunSim(spread).run();
    ASSERT_TRUE(c.completed);
    ASSERT_TRUE(p.completed);
    ASSERT_GT(c.spare_swaps, 0) << "seed produced no swaps";
    EXPECT_EQ(c.cross_pod_swaps, c.spare_swaps);
    EXPECT_LT(p.cross_pod_swaps, p.spare_swaps);
    EXPECT_GT(p.goodput_tflops_per_gpu, c.goodput_tflops_per_gpu);
    EXPECT_LT(p.wall_seconds, c.wall_seconds);
}

TEST(TrainRunSim, ExplicitIntervalIsTheTruthWhenAutoIsOff)
{
    const TrainRunConfig cfg = baseConfig();
    const TrainRunSim sim(cfg);
    EXPECT_EQ(sim.checkpointIntervalSteps(),
              cfg.checkpoint_interval_steps);
}

TEST(TrainRunSim, RepeatOnsetKeepsDetectionProgress)
{
    // Regression (repeat-onset detection clock): a worse repeat onset on
    // a still-undetected rank used to overwrite the whole tracker,
    // resetting steps_to_detect to the fresh value and pushing
    // localization out indefinitely under a steady drip of repeats. The
    // merge must adopt the worse speed but keep the accumulated
    // detection evidence.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(/*tracked_speed=*/0.8,
                            /*tracked_steps_to_detect=*/7,
                            /*tracked_mitigated=*/false,
                            /*onset_severity=*/0.5,
                            /*onset_steps_to_detect=*/40);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 7) << "the pre-fix overwrite reset "
                                           "the clock to the fresh 40";
    EXPECT_FALSE(merge.reset_mitigation);
}

TEST(TrainRunSim, RepeatOnsetAdoptsFasterDetectionWhenWorse)
{
    // A much slower straggler is *easier* to localize: when the fresh
    // detection cost undercuts the remaining clock, take it.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.95, 300, false, 0.3, 5);
    EXPECT_DOUBLE_EQ(merge.speed, 0.3);
    EXPECT_EQ(merge.steps_to_detect, 5);
    EXPECT_FALSE(merge.reset_mitigation);
}

TEST(TrainRunSim, NoWorseRepeatOnsetChangesNothing)
{
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.5, 7, false, 0.8, 3);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 7);
    EXPECT_FALSE(merge.reset_mitigation);
    // Same severity is not worse either.
    EXPECT_EQ(mergeStragglerOnset(0.5, 7, true, 0.5, 3).steps_to_detect,
              7);
}

TEST(TrainRunSim, WorseOnsetOnMitigatedRankRestartsTheCycle)
{
    // The rebalance was sized for the old speed; a worse onset
    // invalidates it, so mitigation starts a fresh detection cycle.
    const StragglerOnsetMerge merge =
        mergeStragglerOnset(0.8, 0, true, 0.5, 40);
    EXPECT_DOUBLE_EQ(merge.speed, 0.5);
    EXPECT_EQ(merge.steps_to_detect, 40);
    EXPECT_TRUE(merge.reset_mitigation);
}

TEST(TrainRunSim, ConcurrentStragglersOnDistinctStagesCompound)
{
    // Regression (joint straggler pricing): concurrent stragglers on
    // different PP stages used to be priced as the max over
    // single-straggler runs; the synchronized step actually pays for
    // every slow stage at once. TrainSim is the pricing oracle: two
    // adjacent slow stages cost strictly more than the worst alone.
    TrainJobConfig job;
    const RankGrid grid(job.par);
    const std::int64_t r7 = grid.rankOf(RankCoord{0, 0, 7, 0});
    const std::int64_t r8 = grid.rankOf(RankCoord{0, 0, 8, 0});
    TrainJobConfig j7 = job;
    j7.perf.injectStraggler(r7, 0.35);
    TrainJobConfig j8 = job;
    j8.perf.injectStraggler(r8, 0.35);
    TrainJobConfig both = job;
    both.perf.injectStraggler(r7, 0.35);
    both.perf.injectStraggler(r8, 0.35);
    const double s7 = TrainSim(j7).run().step_seconds;
    const double s8 = TrainSim(j8).run().step_seconds;
    const double joint = TrainSim(both).run().step_seconds;
    EXPECT_GT(joint, std::max(s7, s8))
        << "two slow stages must cost more than the worst alone";
}

TEST(TrainRunSim, RunPricesTheWholeActiveStragglerSetJointly)
{
    // Regression (joint straggler pricing, run level): with a saturated
    // straggler fleet the degraded time must exceed what max-over-single
    // pricing could ever produce. Stragglers only, detection effectively
    // off (sigma 20 -> ~1856 steps to localize a 0.35 straggler), a
    // degenerate severity range so every onset has speed 0.35, and a hot
    // enough rate that all 16 PP stages are slowed for most of the run.
    TrainRunConfig cfg = baseConfig();
    disableAllFaults(cfg);
    cfg.job.cluster.node.gpu.straggler_mtbf_hours = 50.0;
    cfg.faults.straggler_speed_lo = 0.35;
    cfg.faults.straggler_speed_hi = 0.35;
    cfg.detection.straggler.jitter_sigma = 20.0;
    const TrainRunSim sim(cfg);
    const TrainRunReport rep = sim.run();
    ASSERT_TRUE(rep.completed);
    EXPECT_EQ(rep.restarts, 0) << "nothing may be detected or evicted";
    EXPECT_EQ(rep.rebalances, 0);
    // Price every observed straggler alone (via its stage
    // representative, the rank TrainSim's cost table actually samples)
    // and bound the buggy semantics: max-over-singles pricing can never
    // charge more than every step running at the worst single.
    const RankGrid grid(cfg.job.par);
    std::vector<std::int64_t> seen;
    double worst_single = 0.0;
    for (const FaultEvent &ev : rep.timeline) {
        if (ev.kind != FaultKind::StragglerOnset)
            continue;
        const std::int64_t stage_rep = grid.rankOf(
            RankCoord{0, 0, grid.coordOf(ev.component).pp, 0});
        if (std::find(seen.begin(), seen.end(), stage_rep) != seen.end())
            continue;
        seen.push_back(stage_rep);
        TrainJobConfig job = cfg.job;
        job.perf.injectStraggler(stage_rep, 0.35);
        worst_single = std::max(worst_single,
                                TrainSim(job).run().step_seconds);
    }
    ASSERT_GE(seen.size(), 2u)
        << "need concurrent stragglers on distinct stages";
    const double base = sim.baseStep().step_seconds;
    ASSERT_GT(worst_single, base);
    const double max_over_singles_bound =
        static_cast<double>(cfg.total_steps) * (worst_single - base);
    EXPECT_GT(rep.degraded_seconds, max_over_singles_bound)
        << "joint pricing must exceed any max-over-singles run";
}

/** Bursty pod-heat tuning shared by the correlation tests. */
ColocationTuning
burstyColocation()
{
    ColocationTuning t;
    t.enabled = true;
    t.heat_per_onset = 2.0;
    t.max_heat = 8.0;
    t.hazard_gain = 10.0;
    t.severity_gain = 2.0;
    t.heat_half_life_s = 600.0;
    return t;
}

TEST(TrainRunSim, CorrelationOffIsBitIdenticalToLegacy)
{
    // The correlation axis must be free when off: a disabled colocation
    // block — whatever its (valid) tuning says — consumes no random
    // numbers and reproduces the pre-correlation run bit for bit.
    const TrainRunConfig legacy = faultyConfig();
    TrainRunConfig off = faultyConfig();
    off.faults.colocation.enabled = false;
    off.faults.colocation.heat_per_onset = 5.0;
    off.faults.colocation.max_heat = 5.0;
    off.faults.colocation.hazard_gain = 99.0;
    off.faults.colocation.heat_half_life_s = 1.0;
    const TrainRunReport a = TrainRunSim(legacy).run();
    const TrainRunReport b = TrainRunSim(off).run();
    EXPECT_GT(a.faults.total(), 0) << "config too quiet to test anything";
    expectBitwiseEqual(a, b);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t i = 0; i < a.timeline.size(); ++i) {
        EXPECT_EQ(a.timeline[i].when, b.timeline[i].when);
        EXPECT_EQ(a.timeline[i].component, b.timeline[i].component);
    }
}

TEST(TrainRunSim, CorrelatedStragglersCostGoodputUnderCrn)
{
    // The acceptance property: under common random numbers, whenever the
    // correlated arm produces >= 2 stragglers in one pod, it must yield
    // strictly lower goodput than the independent arm — co-location
    // concentrates stragglers into concurrent, worse-severity bursts the
    // jointly-priced step pays for in full. Seeds whose run finishes
    // before the first correlated onset (no shared pod) are skipped.
    int seeds_with_colocation = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        TrainRunConfig cfg = baseConfig();
        cfg.seed = seed;
        disableAllFaults(cfg);
        cfg.job.cluster.node.gpu.fatal_mtbf_hours = 6000.0;
        cfg.job.cluster.node.gpu.straggler_mtbf_hours = 4000.0;
        cfg.detection.straggler.jitter_sigma = 0.5;
        TrainRunConfig corr = cfg;
        corr.faults.colocation = burstyColocation();
        const TrainRunReport indep = TrainRunSim(cfg).run();
        const TrainRunReport with_corr = TrainRunSim(corr).run();
        // CRN: the non-straggler sub-timelines share a common prefix —
        // the pod-heat model draws from its own streams, so enabling it
        // cannot move a single fatal event.
        std::vector<const FaultEvent *> fatals_a, fatals_b;
        for (const FaultEvent &ev : indep.timeline)
            if (ev.kind != FaultKind::StragglerOnset)
                fatals_a.push_back(&ev);
        for (const FaultEvent &ev : with_corr.timeline)
            if (ev.kind != FaultKind::StragglerOnset)
                fatals_b.push_back(&ev);
        const std::size_t n = std::min(fatals_a.size(), fatals_b.size());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(fatals_a[i]->when, fatals_b[i]->when);
            EXPECT_EQ(fatals_a[i]->component, fatals_b[i]->component);
        }
        // Pod occupancy of the correlated arm's straggler onsets.
        const std::int64_t gpus_per_pod =
            cfg.job.cluster.node.gpus_per_node *
            cfg.job.cluster.nodes_per_pod;
        std::map<std::int64_t, int> per_pod;
        bool shared_pod = false;
        for (const FaultEvent &ev : with_corr.timeline)
            if (ev.kind == FaultKind::StragglerOnset)
                if (++per_pod[ev.component / gpus_per_pod] >= 2)
                    shared_pod = true;
        if (!shared_pod)
            continue;
        ++seeds_with_colocation;
        EXPECT_LT(with_corr.goodput_tflops_per_gpu,
                  indep.goodput_tflops_per_gpu)
            << "seed " << seed;
    }
    ASSERT_GT(seeds_with_colocation, 0)
        << "sweep too quiet to exercise the acceptance property";
}

TEST(TrainRunSimDeathTest, AutoIntervalValidation)
{
    // An explicit interval alongside auto mode is a contradiction, not
    // a silent override.
    TrainRunConfig conflict = faultyConfig();
    conflict.checkpoint_interval_auto = true; // interval stays 40
    EXPECT_DEATH(conflict.validate(),
                 "conflicts with checkpoint_interval_auto");
    // Young–Daly is undefined without a fatal failure rate.
    TrainRunConfig no_faults = baseConfig();
    disableAllFaults(no_faults);
    no_faults.checkpoint_interval_steps = 0;
    no_faults.checkpoint_interval_auto = true;
    EXPECT_DEATH(TrainRunSim{no_faults}, "fatal failure class");
}

TEST(TrainRunSimDeathTest, RejectsBadConfigs)
{
    TrainRunConfig cfg = baseConfig();
    cfg.total_steps = 0;
    EXPECT_DEATH(TrainRunSim{cfg}, "at least one step");
    TrainRunConfig bad_interval = baseConfig();
    bad_interval.checkpoint_interval_steps = 0;
    EXPECT_DEATH(TrainRunSim{bad_interval}, "interval");
    TrainRunConfig cfg2 = baseConfig();
    const TrainRunSim sim(cfg2);
    EXPECT_DEATH(sim.runWithInterval(-1), "interval");
}

TEST(TrainRunSimDeathTest, ValidateRejectsBadPolicies)
{
    // TrainRunConfig::validate() is the single entry gate: policy
    // inconsistencies die before any simulation starts.
    TrainRunConfig pool = baseConfig();
    pool.policy.mode = RecoveryMode::WarmSpare;
    pool.policy.spare_hosts = pool.job.cluster.num_nodes + 1;
    EXPECT_DEATH(pool.validate(), "exceeds");
    EXPECT_DEATH(TrainRunSim{pool}, "exceeds");
    TrainRunConfig orphan_spares = baseConfig();
    orphan_spares.policy.spare_hosts = 4; // mode stays FullRestart
    EXPECT_DEATH(TrainRunSim{orphan_spares}, "warm-spare");
    TrainRunConfig bad_detection = baseConfig();
    bad_detection.detection.fast_fail_seconds = -1.0;
    EXPECT_DEATH(bad_detection.validate(), "non-negative");
    TrainRunConfig bad_storage = baseConfig();
    bad_storage.storage.async.snapshot_gbps_per_gpu = 0.0;
    EXPECT_DEATH(bad_storage.validate(), "snapshot bandwidth");
    TrainRunConfig bad_restart = baseConfig();
    bad_restart.restart.warmup_slowdown = 0.5;
    EXPECT_DEATH(bad_restart.validate(), "restart");
    // Hierarchical-tier knobs are gated by the same entry point.
    TrainRunConfig partial_without_hier = baseConfig();
    partial_without_hier.policy = RecoveryPolicy::elastic(2);
    partial_without_hier.policy.partial_restart = true;
    EXPECT_DEATH(partial_without_hier.validate(), "hier.enabled");
    TrainRunConfig bad_hier = baseConfig();
    bad_hier.storage.hier.nvme_write_gbps_per_host = 0.0;
    EXPECT_DEATH(bad_hier.validate(), "NVMe tier bandwidth");
    TrainRunConfig bad_cadence = baseConfig();
    bad_cadence.storage.hier.global_every = 0;
    EXPECT_DEATH(bad_cadence.validate(), "global cadence");
}

} // namespace
} // namespace llm4d
