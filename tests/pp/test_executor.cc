#include "llm4d/pp/executor.h"

#include <gtest/gtest.h>

namespace llm4d {
namespace {

constexpr double kF = 1e-3; // forward seconds
constexpr double kB = 2e-3; // backward seconds

TEST(Executor, SingleRankRunsSequentially)
{
    Schedule s = buildFlexible(ScheduleParams{1, 1, 4, 4});
    ExecResult r = executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_EQ(r.makespan, secondsToTime(4 * (kF + kB)));
    EXPECT_EQ(r.busy[0], r.makespan);
    EXPECT_DOUBLE_EQ(r.bubbleRatio(0), 0.0);
}

TEST(Executor, Classic1F1BMakespanFormula)
{
    // v=1, zero p2p: T = (nmb + pp - 1) * (f + b).
    const std::int64_t pp = 4, nmb = 8;
    Schedule s = buildFlexible(ScheduleParams{pp, 1, nmb, pp});
    ExecResult r = executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_EQ(r.makespan, secondsToTime((nmb + pp - 1) * (kF + kB)));
}

TEST(Executor, BubbleMatchesAnalyticForUniformCosts)
{
    const ScheduleParams p{4, 2, 16, 4};
    Schedule s = buildFlexible(p);
    ExecResult r = executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    // Every rank computes nmb*v*(f+b); the slowest-path idle is
    // (pp-1)*(f+b) -> ratio (pp-1)/(nmb*v).
    EXPECT_NEAR(r.maxBubbleRatio(), analyticBubbleRatio(p), 0.02);
}

TEST(Executor, MoreMicroBatchesShrinkBubble)
{
    auto bubble = [](std::int64_t nmb) {
        Schedule s = buildFlexible(ScheduleParams{4, 2, nmb, 4});
        return executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0))
            .overallBubbleRatio();
    };
    EXPECT_GT(bubble(4), bubble(8));
    EXPECT_GT(bubble(8), bubble(32));
}

TEST(Executor, ExposedP2PCreatesBubbles)
{
    const ScheduleParams p{4, 2, 8, 4};
    Schedule s = buildFlexible(p);
    const double no_p2p =
        executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0))
            .overallBubbleRatio();
    const double with_p2p =
        executeSchedule(s, ExecConfig::uniform(kF, kB, 0.3e-3))
            .overallBubbleRatio();
    EXPECT_GT(with_p2p, no_p2p * 1.2);
}

TEST(Executor, ExtraWarmupMicroBatchesHideP2P)
{
    // Figure 3: with exposed P2P, running nc > pp extra micro-batches in
    // warm-up reduces the steady-state bubble.
    const double p2p = 0.4e-3;
    Schedule classic = buildFlexible(ScheduleParams{4, 2, 24, 4});
    Schedule extra = buildFlexible(ScheduleParams{4, 2, 24, 8});
    const double classic_bubble =
        executeSchedule(classic, ExecConfig::uniform(kF, kB, p2p))
            .overallBubbleRatio();
    const double extra_bubble =
        executeSchedule(extra, ExecConfig::uniform(kF, kB, p2p))
            .overallBubbleRatio();
    EXPECT_LT(extra_bubble, classic_bubble);
}

TEST(Executor, ExtraWarmupCostsMemory)
{
    Schedule classic = buildFlexible(ScheduleParams{4, 3, 24, 4});
    Schedule extra = buildFlexible(ScheduleParams{4, 3, 24, 8});
    const auto cfg = ExecConfig::uniform(kF, kB, 0.0);
    const auto classic_peak =
        executeSchedule(classic, cfg).peakInFlight(0);
    const auto extra_peak = executeSchedule(extra, cfg).peakInFlight(0);
    EXPECT_EQ(extra_peak - classic_peak,
              flexibleExtraInFlight(ScheduleParams{4, 3, 24, 8}))
        << "Section 3.1.1: (nc-pp)*(v-1) extra in-flight micro-batches";
}

TEST(Executor, AfabHoldsEverythingInFlight)
{
    const ScheduleParams p{4, 2, 12, 12};
    Schedule afab = buildAllForwardAllBackward(p);
    Schedule f1b1 = buildFlexible(ScheduleParams{4, 2, 12, 4});
    const auto cfg = ExecConfig::uniform(kF, kB, 0.0);
    const auto afab_peak = executeSchedule(afab, cfg).peakInFlight(0);
    const auto fb_peak = executeSchedule(f1b1, cfg).peakInFlight(0);
    EXPECT_EQ(afab_peak, p.tmb());
    EXPECT_LT(fb_peak, afab_peak);
}

TEST(Executor, AfabHidesP2PBetterThan1F1B)
{
    // Figure 9 mechanism: AFAB has no fwd->bwd turnaround on the critical
    // path mid-stream, so exposed P2P hurts it less.
    const double p2p = 0.4e-3;
    Schedule afab =
        buildAllForwardAllBackward(ScheduleParams{4, 2, 12, 12});
    Schedule f1b1 = buildFlexible(ScheduleParams{4, 2, 12, 4});
    const auto cfg = ExecConfig::uniform(kF, kB, p2p);
    EXPECT_LT(executeSchedule(afab, cfg).makespan,
              executeSchedule(f1b1, cfg).makespan);
}

TEST(Executor, HeterogeneousStageCostsStretchMakespan)
{
    // Last rank carries the output head: everyone waits for it.
    const ScheduleParams p{4, 1, 8, 4};
    Schedule s = buildFlexible(p);
    ExecConfig cfg;
    cfg.p2p_seconds = [](std::int64_t, std::int64_t) { return 0.0; };
    cfg.stage_cost = [&](std::int64_t rank, std::int64_t, std::int64_t) {
        const double heavy = rank == 3 ? 2.0 : 1.0;
        return StageCost{kF * heavy, kB * heavy};
    };
    ExecResult r = executeSchedule(s, cfg);
    const ExecResult uniform =
        executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_GT(r.makespan, uniform.makespan);
    // The heavy rank has the least idle time.
    EXPECT_LT(r.bubbleRatio(3), r.bubbleRatio(0));
}

TEST(Executor, RecordsAreComplete)
{
    const ScheduleParams p{3, 2, 6, 3};
    Schedule s = buildFlexible(p);
    ExecResult r = executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_EQ(r.records.size(),
              static_cast<std::size_t>(p.pp * 2 * p.tmb()));
    // Sorted by start time.
    for (std::size_t i = 1; i < r.records.size(); ++i)
        EXPECT_LE(r.records[i - 1].start, r.records[i].start);
    // opEnd finds a known op.
    EXPECT_GT(r.opEnd(0, PipeOpKind::Forward, 0, 0), 0);
}

TEST(Executor, DependenciesRespectedInTime)
{
    const ScheduleParams p{4, 2, 8, 4};
    Schedule s = buildFlexible(p);
    const double p2p = 0.1e-3;
    ExecResult r = executeSchedule(s, ExecConfig::uniform(kF, kB, p2p));
    // Forward of global stage g for mb m must start after forward of
    // stage g-1 ends plus the transfer.
    for (std::int64_t mb = 0; mb < p.nmb; ++mb) {
        for (std::int64_t g = 1; g < p.numStages(); ++g) {
            const std::int64_t r_dst = s.rankOfGlobalStage(g);
            const std::int64_t r_src = s.rankOfGlobalStage(g - 1);
            const Time dst_end = r.opEnd(r_dst, PipeOpKind::Forward,
                                         s.vstageOfGlobalStage(g), mb);
            const Time src_end = r.opEnd(r_src, PipeOpKind::Forward,
                                         s.vstageOfGlobalStage(g - 1), mb);
            EXPECT_GE(dst_end - secondsToTime(kF),
                      src_end + (r_src == r_dst ? 0
                                                : secondsToTime(p2p)));
        }
    }
}

TEST(Executor, PerMicroBatchCostVariation)
{
    // Document-mask style variation: odd micro-batches are cheaper.
    const ScheduleParams p{2, 1, 6, 2};
    Schedule s = buildFlexible(p);
    ExecConfig cfg;
    cfg.p2p_seconds = [](std::int64_t, std::int64_t) { return 0.0; };
    cfg.stage_cost = [](std::int64_t, std::int64_t, std::int64_t mb) {
        const double scale = (mb % 2) ? 0.5 : 1.0;
        return StageCost{kF * scale, kB * scale};
    };
    ExecResult r = executeSchedule(s, cfg);
    const ExecResult uniform =
        executeSchedule(s, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_LT(r.makespan, uniform.makespan);
    EXPECT_GT(r.makespan, uniform.makespan / 2);
}

TEST(Executor, ZeroDurationTiesKeepProgramOrder)
{
    // Zero-cost ops all start at t = 0 (forwards) or share a start with
    // their neighbours (zero backwards). Records with equal start must be
    // ordered by rank and, within a rank, by program order: gradient
    // memory walks a rank's records in this order to decide when a
    // buffer first materializes.
    const ScheduleParams p{4, 2, 8, 4};
    const Schedule s = buildFlexible(p);
    for (const ExecConfig &cfg :
         {ExecConfig::uniform(0.0, 0.0, 0.0),
          ExecConfig::uniform(0.0, kB, 0.0)}) {
        const ExecResult r = executeSchedule(s, cfg);
        ASSERT_EQ(r.records.size(),
                  static_cast<std::size_t>(2 * p.pp * p.tmb()));
        std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
        for (std::size_t i = 0; i < r.records.size(); ++i) {
            const OpRecord &rec = r.records[i];
            auto &next = pc[static_cast<std::size_t>(rec.rank)];
            ASSERT_EQ(rec.op, s.program(rec.rank)[next]) << "record " << i;
            ++next;
            if (i == 0)
                continue;
            const OpRecord &prev = r.records[i - 1];
            ASSERT_LE(prev.start, rec.start) << "record " << i;
            if (prev.start == rec.start) {
                ASSERT_LE(prev.rank, rec.rank) << "record " << i;
            }
        }
    }
    // All-zero costs: everything starts at 0, so the records are rank 0's
    // whole program, then rank 1's, and so on.
    const ExecResult zero =
        executeSchedule(s, ExecConfig::uniform(0.0, 0.0, 0.0));
    EXPECT_EQ(zero.makespan, 0);
    EXPECT_EQ(zero.records.front().rank, 0);
    EXPECT_EQ(zero.records.back().rank, p.pp - 1);
}

} // namespace
} // namespace llm4d
