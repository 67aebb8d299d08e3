/**
 * Death tests for the runtime invariant auditor (-DLLM4D_AUDIT=ON).
 * Each test corrupts state through an audit-only seam and asserts the
 * corresponding auditor aborts with its structured message — proving
 * the invariant checks are live, not vacuously true.
 */

#include "llm4d/sim/train_run_sim.h"
#include "llm4d/simcore/engine.h"

#include <gtest/gtest.h>

#if !LLM4D_AUDIT_ENABLED
#error "tests/audit must be compiled with -DLLM4D_AUDIT=ON"
#endif

namespace llm4d {
namespace {

TrainRunConfig
smallConfig()
{
    TrainRunConfig cfg;
    cfg.total_steps = 40;
    cfg.checkpoint_interval_steps = 10;
    cfg.seed = 7;
    return cfg;
}

TEST(AuditEngine, CleanRunPasses)
{
    Engine eng;
    int fired = 0;
    for (int i = 0; i < 8; ++i)
        eng.schedule(i * kUs, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 8);
}

TEST(AuditEngineDeath, ClockMovedPastPendingEventAborts)
{
    // Force the clock beyond an already-scheduled event; executing that
    // event would move simulated time backwards, which the monotonicity
    // auditor must catch.
    auto victim = [] {
        Engine eng;
        eng.schedule(100 * kUs, [] {});
        eng.auditForceClockForTest(200 * kUs);
        eng.run();
    };
    EXPECT_DEATH(victim(), "audit\\[engine\\]");
}

TEST(AuditEngineDeath, AdvanceOntoQueuedEventAborts)
{
    // Weaken tryAdvanceTo's guard so it admits a tie: the re-stated
    // strictly-before-head invariant must still catch it.
    auto victim = [] {
        Engine eng;
        eng.schedule(100 * kUs, [] {});
        eng.auditAdmitTiesForTest();
        (void)eng.tryAdvanceTo(100 * kUs);
    };
    EXPECT_DEATH(victim(), "audit\\[engine\\]");
}

TEST(AuditSim, CleanTrainRunPasses)
{
    const TrainRunSim sim(smallConfig());
    const TrainRunReport rep = sim.run();
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.steps_committed, 40);
}

TEST(AuditSimDeath, DesynchronizedLostBucketAborts)
{
    // Leak five seconds into the lost-time bucket right before the
    // conservation check: the buckets no longer sum to the makespan and
    // the auditor must abort the run.
    auto victim = [] {
        audit_testing::trainrun_lost_skew_seconds = 5.0;
        const TrainRunSim sim(smallConfig());
        (void)sim.run();
    };
    EXPECT_DEATH(victim(), "audit\\[sim\\]");
    audit_testing::trainrun_lost_skew_seconds = 0.0;
}

} // namespace
} // namespace llm4d
