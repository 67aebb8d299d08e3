#include "llm4d/simcore/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace llm4d {
namespace {

TEST(Engine, StartsAtTimeZero)
{
    Engine eng;
    EXPECT_EQ(eng.now(), 0);
    EXPECT_TRUE(eng.idle());
}

TEST(Engine, ExecutesEventsInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(30 * kUs, [&] { order.push_back(3); });
    eng.schedule(10 * kUs, [&] { order.push_back(1); });
    eng.schedule(20 * kUs, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 30 * kUs);
    EXPECT_EQ(eng.eventsProcessed(), 3);
}

TEST(Engine, SimultaneousEventsRunInSchedulingOrder)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eng.schedule(5 * kUs, [&order, i] { order.push_back(i); });
    eng.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleFurtherEvents)
{
    Engine eng;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eng.schedule(kUs, chain);
    };
    eng.schedule(kUs, chain);
    eng.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eng.now(), 5 * kUs);
}

TEST(Engine, RunUntilStopsAtLimit)
{
    Engine eng;
    int fired = 0;
    eng.schedule(10 * kUs, [&] { ++fired; });
    eng.schedule(20 * kUs, [&] { ++fired; });
    eng.schedule(30 * kUs, [&] { ++fired; });
    const Time t = eng.runUntil(20 * kUs);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(t, 20 * kUs);
    EXPECT_FALSE(eng.idle());
    eng.run();
    EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle)
{
    Engine eng;
    EXPECT_EQ(eng.runUntil(kMs), kMs);
    EXPECT_EQ(eng.now(), kMs);
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime)
{
    Engine eng;
    Time seen = -1;
    eng.schedule(7 * kUs, [&] {
        eng.schedule(0, [&] { seen = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(seen, 7 * kUs);
}

TEST(Engine, RunUntilExactLimitBoundary)
{
    // Events at exactly the limit execute; later ones stay queued; and
    // simultaneous events at the limit keep FIFO scheduling order — the
    // guarantee interrupt-style models (the fault injector) rely on.
    Engine eng;
    std::vector<int> order;
    eng.schedule(10 * kUs, [&] { order.push_back(1); });
    eng.schedule(10 * kUs, [&] { order.push_back(2); });
    eng.schedule(10 * kUs + 1, [&] { order.push_back(3); });
    const Time t = eng.runUntil(10 * kUs);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(t, 10 * kUs);
    EXPECT_FALSE(eng.idle());
}

TEST(Engine, RunUntilAdvancesClockPastPendingEvents)
{
    // The clock always reaches the limit, even when the only pending
    // events lie beyond it.
    Engine eng;
    int fired = 0;
    eng.schedule(kMs, [&] { ++fired; });
    EXPECT_EQ(eng.runUntil(10 * kUs), 10 * kUs);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eng.now(), 10 * kUs);
}

TEST(Engine, RunForAdvancesRelativeToNow)
{
    Engine eng;
    std::vector<Time> seen;
    eng.schedule(5 * kUs, [&] { seen.push_back(eng.now()); });
    eng.schedule(25 * kUs, [&] { seen.push_back(eng.now()); });
    EXPECT_EQ(eng.runFor(10 * kUs), 10 * kUs);
    EXPECT_EQ(seen, (std::vector<Time>{5 * kUs}));
    // Second leg is relative to the new now(), not to zero.
    EXPECT_EQ(eng.runFor(20 * kUs), 30 * kUs);
    EXPECT_EQ(seen, (std::vector<Time>{5 * kUs, 25 * kUs}));
}

TEST(Engine, CancelPreventsExecution)
{
    Engine eng;
    int fired = 0;
    const EventId id = eng.schedule(10 * kUs, [&] { ++fired; });
    eng.schedule(20 * kUs, [&] { ++fired; });
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_FALSE(eng.cancel(id)) << "double-cancel must report failure";
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.eventsProcessed(), 1)
        << "cancelled events must not count as processed";
}

TEST(Engine, CancelUnknownIdFails)
{
    Engine eng;
    EXPECT_FALSE(eng.cancel(12345));
}

TEST(Engine, CancelledEventDoesNotAdvanceClock)
{
    Engine eng;
    const EventId id = eng.schedule(50 * kUs, [] {});
    eng.schedule(10 * kUs, [] {});
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_EQ(eng.run(), 10 * kUs)
        << "the cancelled 50us event must not drag the clock forward";
}

TEST(Engine, CancelAfterExecutionFails)
{
    Engine eng;
    const EventId id = eng.schedule(kUs, [] {});
    eng.run();
    EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, IdleAccountsForCancelledEvents)
{
    Engine eng;
    const EventId id = eng.schedule(kUs, [] {});
    EXPECT_FALSE(eng.idle());
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_TRUE(eng.idle())
        << "a queue holding only cancelled events is idle";
}

TEST(Engine, InterruptPatternCancelsInFlightCompletion)
{
    // The fault-injection pattern: a completion is pending, an interrupt
    // fires earlier, cancels it, and reschedules recovery work.
    Engine eng;
    std::vector<std::string> log;
    EventId completion =
        eng.schedule(100 * kUs, [&] { log.push_back("step-done"); });
    eng.schedule(40 * kUs, [&] {
        log.push_back("fault");
        EXPECT_TRUE(eng.cancel(completion));
        eng.schedule(60 * kUs, [&] { log.push_back("restarted"); });
    });
    eng.run();
    EXPECT_EQ(log, (std::vector<std::string>{"fault", "restarted"}));
    EXPECT_EQ(eng.now(), 100 * kUs);
}

TEST(Engine, TryAdvanceToMovesClockOnEmptyQueue)
{
    Engine eng;
    EXPECT_TRUE(eng.tryAdvanceTo(10 * kUs));
    EXPECT_EQ(eng.now(), 10 * kUs);
    EXPECT_TRUE(eng.tryAdvanceTo(10 * kUs)) << "advancing to now() is fine";
    EXPECT_EQ(eng.eventsProcessed(), 0);
}

TEST(Engine, TryAdvanceToMovesClockWhenHeadIsStrictlyLater)
{
    Engine eng;
    int fired = 0;
    eng.schedule(20 * kUs, [&] { ++fired; });
    EXPECT_TRUE(eng.tryAdvanceTo(20 * kUs - 1));
    EXPECT_EQ(eng.now(), 20 * kUs - 1);
    EXPECT_EQ(fired, 0) << "tryAdvanceTo never runs a callback";
    EXPECT_EQ(eng.eventsProcessed(), 0);
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.eventsProcessed(), 1);
}

TEST(Engine, TryAdvanceToRefusesATieWithTheHead)
{
    // An event queued at exactly t was scheduled before any work the
    // caller would do inline at t, so FIFO order says it runs first.
    Engine eng;
    eng.schedule(20 * kUs, [] {});
    EXPECT_FALSE(eng.tryAdvanceTo(20 * kUs));
    EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, TryAdvanceToRefusesPastTheHead)
{
    Engine eng;
    eng.schedule(20 * kUs, [] {});
    EXPECT_FALSE(eng.tryAdvanceTo(30 * kUs));
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.eventsProcessed(), 0);
}

TEST(Engine, TryAdvanceToCountsACancelledHead)
{
    // Conservative: a cancelled event still queued blocks the advance.
    Engine eng;
    const EventId id = eng.schedule(20 * kUs, [] {});
    EXPECT_TRUE(eng.cancel(id));
    EXPECT_TRUE(eng.idle());
    EXPECT_FALSE(eng.tryAdvanceTo(30 * kUs));
    EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, TryAdvanceToKeepsFifoOrderForLaterEvents)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(50 * kUs, [&] { order.push_back(1); });
    ASSERT_TRUE(eng.tryAdvanceTo(10 * kUs));
    // Both land at 50us, after the event queued before the advance.
    eng.schedule(40 * kUs, [&] { order.push_back(2); });
    eng.scheduleAt(50 * kUs, [&] { order.push_back(3); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 50 * kUs);
    EXPECT_EQ(eng.eventsProcessed(), 3);
}

TEST(EngineDeath, TryAdvanceToIntoThePastAborts)
{
    auto victim = [] {
        Engine eng;
        ASSERT_TRUE(eng.tryAdvanceTo(10 * kUs));
        (void)eng.tryAdvanceTo(5 * kUs);
    };
    EXPECT_DEATH(victim(), "clock advanced into the past");
}

TEST(TimeConversions, RoundTrip)
{
    EXPECT_EQ(secondsToTime(1.0), kSec);
    EXPECT_EQ(microsToTime(2.5), 2500);
    EXPECT_DOUBLE_EQ(timeToSeconds(kSec), 1.0);
    EXPECT_DOUBLE_EQ(timeToMicros(kUs), 1.0);
    EXPECT_DOUBLE_EQ(timeToMillis(kMs), 1.0);
    // Sub-nanosecond durations round to nearest.
    EXPECT_EQ(secondsToTime(1.4e-9), 1);
    EXPECT_EQ(secondsToTime(1.6e-9), 2);
}

} // namespace
} // namespace llm4d
