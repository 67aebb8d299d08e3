#include "llm4d/plan/goodput_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

namespace llm4d {
namespace {

/** A 2048-GPU problem small enough to sweep quickly in tests. */
GoodputPlanInput
smallInput()
{
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(2048);
    in.base.global_batch_tokens = 2LL * 1024 * 1024;
    in.top_k = 3;
    in.horizon_steps = 1200;
    // Pin the tier axes off: the legacy-grid tests assert exact sweep
    // shapes; the dedicated tier-axis tests below opt back in.
    in.hier_global_every_options = {0};
    in.partial_restart_options = {false};
    return in;
}

/** Layouts with and without a DP peer to mirror to. */
const ParallelismConfig kPeered{8, 1, 16, 16};
const ParallelismConfig kUnpeered{8, 1, 16, 1};

bool
sameRanking(const std::vector<GoodputPlanCandidate> &a,
            const std::vector<GoodputPlanCandidate> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].analytic.par == b[i].analytic.par) ||
            a[i].analytic.zero != b[i].analytic.zero ||
            a[i].analytic.schedule != b[i].analytic.schedule ||
            a[i].goodput_tflops_per_gpu != b[i].goodput_tflops_per_gpu ||
            a[i].best_point != b[i].best_point)
            return false;
    }
    return true;
}

TEST(GoodputPlanner, SweepCellsCoverTheCrossProduct)
{
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0, 4};
    in.checkpoint_mode_options = {CheckpointMode::Sync,
                                  CheckpointMode::Async};
    in.dp_shrink_options = {false, true};
    in.regrow_options = {false, true};
    in.partial_restart_options = {false, true};
    // Tiers in every cell, so partial restart applies wherever the
    // policy gives it a live recovery path.
    in.hier_global_every_options = {16};
    const std::vector<GoodputSweepPoint> grid = in.sweepCells(kPeered);
    // 2x2x2 base combinations; the six elastic ones are quadrupled by
    // the regrow and partial axes, the two full-restart baselines (no
    // spares, no shrink) collapse both axes: 6*4 + 2.
    EXPECT_EQ(grid.size(), 26u);
    std::int64_t regrow_cells = 0;
    std::int64_t partial_cells = 0;
    for (const GoodputSweepPoint &cell : grid) {
        const RecoveryPolicy &p = cell.policy;
        EXPECT_EQ(cell.hier_global_every, 16);
        // WarmSpare exactly when the elastic paths have something to do.
        const bool elastic = p.spare_hosts > 0 || p.allow_dp_shrink;
        EXPECT_EQ(p.mode, elastic ? RecoveryMode::WarmSpare
                                  : RecoveryMode::FullRestart);
        EXPECT_EQ(p.straggler_rebalance, in.straggler_rebalance);
        if (p.allow_regrow) {
            ++regrow_cells;
            EXPECT_TRUE(elastic)
                << "regrow-on cells need a pool or a shrink to undo";
        }
        if (p.partial_restart) {
            ++partial_cells;
            EXPECT_TRUE(elastic)
                << "partial-restart cells need a live recovery path";
        }
    }
    EXPECT_EQ(regrow_cells, 12);
    EXPECT_EQ(partial_cells, 12);
    // Without a DP peer there is no tier to mirror to: every cell of a
    // tiers-only grid is skipped.
    EXPECT_TRUE(in.sweepCells(kUnpeered).empty());
}

TEST(GoodputPlanner, RegrowAxisCollapsesOnTheFullRestartBaseline)
{
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0};
    in.dp_shrink_options = {false};
    in.checkpoint_mode_options = {CheckpointMode::Sync};
    in.regrow_options = {false, true};
    // Nothing for regrow to do: the axis must not duplicate the cell —
    // and the partial-restart axis collapses on the same baseline.
    EXPECT_EQ(in.sweepCells(kPeered).size(), 1u);
    in.partial_restart_options = {false, true};
    EXPECT_EQ(in.sweepCells(kPeered).size(), 1u);
}

TEST(GoodputPlanner, TierAxesSweepOnlyWhereTheyApply)
{
    // Trimmed grid isolating the two new axes: one elastic pool, async
    // snapshots. Two policies (partial on/off) x two tier cadences
    // (global-only, every-16th), minus the invalid partial-without-tiers
    // combination: three cells per candidate with a DP peer.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {2};
    in.checkpoint_mode_options = {CheckpointMode::Async};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.hier_global_every_options = {0, 16};
    in.partial_restart_options = {false, true};
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        const bool has_peer =
            cand.analytic.par.dp * cand.analytic.par.cp >= 2;
        ASSERT_EQ(cand.sweep.size(), has_peer ? 3u : 1u)
            << cand.analytic.par.str();
        std::int64_t tiered = 0;
        std::int64_t partial = 0;
        for (const GoodputSweepPoint &pt : cand.sweep) {
            EXPECT_TRUE(pt.hier_global_every == 0 ||
                        pt.hier_global_every == 16);
            if (pt.policy.partial_restart) {
                ++partial;
                // Partial restart only rides on tiered cells.
                EXPECT_GT(pt.hier_global_every, 0);
            }
            if (pt.hier_global_every > 0) {
                ++tiered;
                EXPECT_TRUE(has_peer);
            }
            EXPECT_TRUE(pt.report.completed);
            EXPECT_GT(pt.checkpoint_interval_steps, 0);
        }
        if (has_peer) {
            EXPECT_EQ(tiered, 2);
            EXPECT_EQ(partial, 1);
        }
    }
}

TEST(GoodputPlanner, PlacementAxisSweepsOnlyWherePoolsExist)
{
    // The placement axis multiplies only the cells that actually have a
    // spare pool: a spare-less baseline has nothing to place.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0, 4};
    in.checkpoint_mode_options = {CheckpointMode::Sync};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.placement_migration = true;
    const std::vector<GoodputSweepPoint> grid = in.sweepCells(kPeered);
    // spares=0 collapses to the one CentralPool baseline; spares=4
    // sweeps both placements: 1 + 2.
    ASSERT_EQ(grid.size(), 3u);
    std::int64_t per_pod_cells = 0;
    for (const GoodputSweepPoint &cell : grid) {
        const RecoveryPolicy &p = cell.policy;
        if (p.spare_placement == SparePlacementPolicy::PerPodReserve) {
            ++per_pod_cells;
            EXPECT_GT(p.spare_hosts, 0);
        }
        // Migration rides only on the elastic (warm-spare) cells.
        EXPECT_EQ(p.placement_migration,
                  p.mode == RecoveryMode::WarmSpare);
        p.validate(in.base.cluster);
    }
    EXPECT_EQ(per_pod_cells, 1);
    // The default single-option axis leaves the legacy grid untouched.
    GoodputPlanInput legacy = smallInput();
    for (const GoodputSweepPoint &cell : legacy.sweepCells(kPeered)) {
        EXPECT_EQ(cell.policy.spare_placement,
                  SparePlacementPolicy::CentralPool);
        EXPECT_FALSE(cell.policy.placement_migration);
    }
}

TEST(GoodputPlanner, CorrelationAxisDoublesTheCellsOfAStragglerClass)
{
    GoodputPlanInput in = smallInput();
    ASSERT_GT(in.base.cluster.node.gpu.straggler_mtbf_hours, 0.0);
    const std::vector<GoodputSweepPoint> independent =
        in.sweepCells(kPeered);
    in.straggler_correlation_options = {false, true};
    const std::vector<GoodputSweepPoint> grid = in.sweepCells(kPeered);
    ASSERT_EQ(grid.size(), 2 * independent.size());
    // Correlation is the fastest axis: each independent cell is
    // followed by its correlated twin.
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GoodputSweepPoint &twin = independent[i / 2];
        EXPECT_EQ(grid[i].straggler_correlation, i % 2 == 1);
        EXPECT_EQ(grid[i].policy.spare_hosts, twin.policy.spare_hosts);
        EXPECT_EQ(grid[i].policy.checkpoint_mode,
                  twin.policy.checkpoint_mode);
        EXPECT_EQ(grid[i].policy.allow_dp_shrink,
                  twin.policy.allow_dp_shrink);
        EXPECT_EQ(grid[i].hier_global_every, twin.hier_global_every);
    }
}

TEST(GoodputPlanner, CorrelationAxisCollapsesWithoutAStragglerClass)
{
    GoodputPlanInput in = smallInput();
    in.base.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    const std::size_t independent = in.sweepCells(kPeered).size();
    in.straggler_correlation_options = {false, true};
    const std::vector<GoodputSweepPoint> grid = in.sweepCells(kPeered);
    // Nothing to correlate: the axis must not duplicate any cell.
    EXPECT_EQ(grid.size(), independent);
    for (const GoodputSweepPoint &cell : grid)
        EXPECT_FALSE(cell.straggler_correlation);
}

TEST(GoodputPlanner, PerPodReservesWinAWornFleetCellAt16K)
{
    // Acceptance criterion: on a worn 16K fleet (MTBF at a third of the
    // paper's nominal rates) with placement priced, the planner's
    // placement sweep produces a CRN-deterministic ranking in which the
    // per-pod reserve strictly beats the central pool in at least one
    // cell — spreading the spares converts every swap from a
    // spine-priced displacement into a pod-local splice.
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(16384);
    in.base.cluster.node.gpu.fatal_mtbf_hours /= 3.0;
    in.base.cluster.node.host_mtbf_hours /= 3.0;
    in.top_k = 2;
    in.horizon_steps = 3000;
    in.spare_pool_options = {6}; // one per pod when spread
    in.checkpoint_mode_options = {CheckpointMode::Async};
    in.dp_shrink_options = {false};
    in.regrow_options = {false};
    in.hier_global_every_options = {0};
    in.partial_restart_options = {false};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.placement_migration = true;
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    EXPECT_TRUE(sameRanking(ranked, planGoodput(in)));
    bool saw_swaps = false;
    bool per_pod_won = false;
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_EQ(cand.sweep.size(), 2u) << cand.analytic.par.str();
        const GoodputSweepPoint *central = nullptr;
        const GoodputSweepPoint *spread = nullptr;
        for (const GoodputSweepPoint &pt : cand.sweep) {
            if (pt.policy.spare_placement ==
                SparePlacementPolicy::PerPodReserve)
                spread = &pt;
            else
                central = &pt;
        }
        ASSERT_NE(central, nullptr);
        ASSERT_NE(spread, nullptr);
        if (central->report.spare_swaps == 0)
            continue;
        saw_swaps = true;
        // Central-pool spares always live out-of-pod; spread reserves
        // serve at least their first claim per pod locally.
        EXPECT_EQ(central->report.cross_pod_swaps,
                  central->report.spare_swaps)
            << cand.analytic.par.str();
        EXPECT_LT(spread->report.cross_pod_swaps,
                  spread->report.spare_swaps)
            << cand.analytic.par.str();
        if (spread->goodput_tflops_per_gpu >
            central->goodput_tflops_per_gpu)
            per_pod_won = true;
    }
    ASSERT_TRUE(saw_swaps)
        << "worn fleet never consumed a spare within the horizon";
    EXPECT_TRUE(per_pod_won)
        << "per-pod reserves never beat the central pool in any cell";
}

TEST(GoodputPlanner, SameSeedAndSweepGiveIdenticalRanking)
{
    // Common random numbers: re-running the identical input must
    // reproduce the ranking exactly (values, order, and best cells).
    const GoodputPlanInput in = smallInput();
    const auto first = planGoodput(in);
    const auto second = planGoodput(in);
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(sameRanking(first, second));
}

TEST(GoodputPlanner, RankingInvariantToCandidateEvaluationOrder)
{
    // Reversing the analytic axis enumeration must not change the
    // ranked outcome: survivors are re-sorted under a total order
    // before selection and after scoring.
    const GoodputPlanInput forward = smallInput();
    GoodputPlanInput backward = forward;
    std::reverse(backward.base.tp_options.begin(),
                 backward.base.tp_options.end());
    std::reverse(backward.base.cp_options.begin(),
                 backward.base.cp_options.end());
    std::reverse(backward.base.pp_options.begin(),
                 backward.base.pp_options.end());
    const auto a = planGoodput(forward);
    const auto b = planGoodput(backward);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(sameRanking(a, b));
}

TEST(GoodputPlanner, GoodputWinnerAtLeastMatchesAnalyticWinner)
{
    // The acceptance property: under the same fault seed, the goodput
    // winner's simulated goodput must be >= the fault-free TFLOPs
    // winner's, because the analytic pick always competes in stage 2.
    const GoodputPlanInput in = smallInput();
    const std::optional<PlanCandidate> analytic = tryBestPlan(in.base);
    ASSERT_TRUE(analytic.has_value());
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());

    const auto analytic_scored = std::find_if(
        ranked.begin(), ranked.end(),
        [&](const GoodputPlanCandidate &c) {
            return c.analytic.par == analytic->par &&
                   c.analytic.zero == analytic->zero &&
                   c.analytic.schedule == analytic->schedule;
        });
    ASSERT_NE(analytic_scored, ranked.end())
        << "the analytic preferred plan must always be simulated";
    EXPECT_GE(ranked.front().goodput_tflops_per_gpu,
              analytic_scored->goodput_tflops_per_gpu);
}

TEST(GoodputPlanner, EveryCellReportsACompletedRun)
{
    const auto ranked = planGoodput(smallInput());
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_FALSE(cand.sweep.empty());
        ASSERT_LT(cand.best_point, cand.sweep.size());
        EXPECT_EQ(cand.goodput_tflops_per_gpu,
                  cand.best().goodput_tflops_per_gpu);
        for (const GoodputSweepPoint &pt : cand.sweep) {
            EXPECT_TRUE(pt.report.completed);
            EXPECT_GT(pt.checkpoint_interval_steps, 0);
            EXPECT_GT(pt.goodput_tflops_per_gpu, 0.0);
        }
    }
}

TEST(GoodputPlanner, IdleSparesAreChargedAsProvisionedCapacity)
{
    const GoodputPlanInput in = smallInput();
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    const double gpus_per_host =
        static_cast<double>(in.base.cluster.node.gpus_per_node);
    bool saw_spares = false;
    for (const GoodputPlanCandidate &cand : ranked) {
        const double world =
            static_cast<double>(cand.analytic.par.worldSize());
        for (const GoodputSweepPoint &pt : cand.sweep) {
            const double provisioned =
                world + static_cast<double>(pt.policy.spare_hosts) *
                            gpus_per_host;
            EXPECT_NEAR(pt.goodput_tflops_per_gpu,
                        pt.report.goodput_tflops_per_gpu * world /
                            provisioned,
                        1e-12);
            saw_spares |= pt.policy.spare_hosts > 0;
        }
    }
    EXPECT_TRUE(saw_spares) << "default sweep must include a spare pool";
}

TEST(GoodputPlanner, AsyncCellsContractTheYoungDalyInterval)
{
    // Under async checkpointing only the snapshot blocks the step, so
    // the auto-tuned interval must be strictly shorter than the sync
    // cell's for the same candidate.
    GoodputPlanInput in = smallInput();
    in.spare_pool_options = {0};
    in.dp_shrink_options = {false};
    in.checkpoint_mode_options = {CheckpointMode::Sync,
                                  CheckpointMode::Async};
    const auto ranked = planGoodput(in);
    ASSERT_FALSE(ranked.empty());
    for (const GoodputPlanCandidate &cand : ranked) {
        ASSERT_EQ(cand.sweep.size(), 2u);
        const auto &sync_pt =
            cand.sweep[cand.sweep[0].policy.checkpoint_mode ==
                               CheckpointMode::Sync
                           ? 0
                           : 1];
        const auto &async_pt =
            cand.sweep[cand.sweep[0].policy.checkpoint_mode ==
                               CheckpointMode::Sync
                           ? 1
                           : 0];
        EXPECT_LT(async_pt.checkpoint_interval_steps,
                  sync_pt.checkpoint_interval_steps)
            << cand.analytic.par.str();
    }
}

TEST(GoodputPlanner, TryBestReturnsNulloptWhenNothingFits)
{
    GoodputPlanInput in = smallInput();
    in.base.tp_options = {5}; // divides neither cluster nor heads
    in.base.cp_options = {1};
    in.base.pp_options = {1};
    EXPECT_FALSE(tryBestGoodputPlan(in).has_value());
    EXPECT_DEATH(bestGoodputPlan(in),
                 "no feasible parallelism configuration");
}

TEST(GoodputPlanner, ValidateRejectsInsaneSweeps)
{
    {
        GoodputPlanInput in = smallInput();
        in.top_k = 0;
        EXPECT_DEATH(planGoodput(in), "at least one survivor");
    }
    {
        GoodputPlanInput in = smallInput();
        in.horizon_steps = 0;
        EXPECT_DEATH(planGoodput(in), "horizon must be positive");
    }
    {
        GoodputPlanInput in = smallInput();
        in.checkpoint_mode_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.regrow_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.spare_pool_options = {-1};
        EXPECT_DEATH(planGoodput(in), "cannot be negative");
    }
    {
        GoodputPlanInput in = smallInput();
        in.hier_global_every_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.partial_restart_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.hier_global_every_options = {-4};
        EXPECT_DEATH(planGoodput(in), "global cadence");
    }
    {
        GoodputPlanInput in = smallInput();
        in.placement_options.clear();
        EXPECT_DEATH(planGoodput(in), "sweep axis");
    }
    {
        // sweepCells is public, so it validates before it indexes.
        GoodputPlanInput in = smallInput();
        in.straggler_correlation_options.clear();
        EXPECT_DEATH((void)in.sweepCells(kPeered), "sweep axis");
    }
    {
        GoodputPlanInput in = smallInput();
        in.base.cluster.node.gpu.fatal_mtbf_hours = 0.0;
        in.base.cluster.node.host_mtbf_hours = 0.0;
        EXPECT_DEATH(planGoodput(in), "fatal failure class");
    }
}

} // namespace
} // namespace llm4d
