/**
 * Parameterized property tests on the timed executor: invariants that
 * must hold for every legal schedule regardless of shape.
 */

#include <gtest/gtest.h>

#include "llm4d/pp/executor.h"
#include "llm4d/pp/legality.h"

namespace llm4d {
namespace {

struct Shape
{
    std::int64_t pp, v, nmb, nc;
    bool afab;
};

class ExecutorProperties : public ::testing::TestWithParam<Shape>
{
  protected:
    Schedule
    make() const
    {
        const Shape s = GetParam();
        const ScheduleParams p{s.pp, s.v, s.nmb, s.nc};
        return s.afab ? buildAllForwardAllBackward(p) : buildFlexible(p);
    }
};

constexpr double kF = 1.5e-3, kB = 3e-3, kP2P = 0.2e-3;

TEST_P(ExecutorProperties, MakespanBoundedBelowByWork)
{
    // No rank can finish before its own serial work, nor before the
    // dependency chain of micro-batch 0 through all stages.
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    const Time per_rank_work =
        secondsToTime(static_cast<double>(p.tmb()) * (kF + kB));
    EXPECT_GE(exec.makespan, per_rank_work);
    const Time chain = secondsToTime(
        static_cast<double>(p.numStages()) * (kF + kB) +
        static_cast<double>(2 * (p.numStages() - 1)) * kP2P);
    EXPECT_GE(exec.makespan + 1, chain);
}

TEST_P(ExecutorProperties, BusyTimeExactlyAccountsAllOps)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        EXPECT_EQ(exec.busy[static_cast<std::size_t>(r)],
                  secondsToTime(kF) * p.tmb() +
                      secondsToTime(kB) * p.tmb());
    }
}

TEST_P(ExecutorProperties, NoOverlappingOpsPerRank)
{
    const Schedule sched = make();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    // Group records by rank in order.
    for (std::int64_t r = 0; r < sched.params().pp; ++r) {
        Time prev = 0;
        for (const OpRecord &rec : exec.records) {
            if (rec.rank != r)
                continue;
            EXPECT_GE(rec.start, prev) << "rank " << r;
            prev = rec.end;
        }
    }
}

TEST_P(ExecutorProperties, BackwardNeverPrecedesOwnForward)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        for (std::int64_t s = 0; s < p.v; ++s) {
            for (std::int64_t mb = 0; mb < p.nmb; ++mb) {
                EXPECT_LE(exec.opEnd(r, PipeOpKind::Forward, s, mb),
                          exec.opEnd(r, PipeOpKind::Backward, s, mb) -
                              secondsToTime(kB));
            }
        }
    }
}

TEST_P(ExecutorProperties, ZeroP2PNeverSlowerThanWithP2P)
{
    const Schedule sched = make();
    const ExecResult with =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    const ExecResult without =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, 0.0));
    EXPECT_LE(without.makespan, with.makespan);
}

TEST_P(ExecutorProperties, InFlightNeverExceedsTotal)
{
    const Schedule sched = make();
    const ScheduleParams &p = sched.params();
    const ExecResult exec =
        executeSchedule(sched, ExecConfig::uniform(kF, kB, kP2P));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        EXPECT_GE(exec.peakInFlight(r), 1);
        EXPECT_LE(exec.peakInFlight(r), p.tmb());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorProperties,
    ::testing::Values(Shape{1, 1, 1, 1, false}, Shape{2, 1, 4, 2, false},
                      Shape{3, 2, 6, 3, false}, Shape{4, 2, 9, 4, false},
                      Shape{4, 4, 24, 8, false},
                      Shape{8, 2, 16, 8, false},
                      Shape{4, 2, 12, 12, true},
                      Shape{6, 3, 13, 5, false},
                      Shape{16, 8, 16, 16, false},
                      Shape{5, 1, 7, 5, false}));

} // namespace
} // namespace llm4d
