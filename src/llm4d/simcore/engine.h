#ifndef LLM4D_SIMCORE_ENGINE_H_
#define LLM4D_SIMCORE_ENGINE_H_

/**
 * @file
 * Discrete-event simulation engine. Deterministic: simultaneous events
 * execute in scheduling order (FIFO tie-break on a sequence number), so a
 * given model produces bit-identical results on every run.
 *
 * The FIFO tie-break is a contract, not an accident: interrupt-style
 * models (the fault injector) schedule an "interrupt" event at the exact
 * timestamp of an already-pending completion and rely on the completion
 * that was scheduled FIRST executing first, so the handler scheduled
 * later observes a consistent before/after ordering.
 *
 * tryAdvanceTo() lets a model run self-scheduled work inline instead of
 * as an event, without breaking that contract. It moves the clock to t
 * only when every queued event, cancelled ones included, lies strictly
 * after t. Such work would have been the next event to run, and the
 * events it schedules get later sequence numbers than every queued
 * event either way, so the order of everything else is unchanged. An
 * event queued at exactly t was scheduled before the inline work would
 * have been, so it must run first: at a tie the call refuses and the
 * model schedules an ordinary event.
 */

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "llm4d/simcore/audit.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Handle to a scheduled event, usable with Engine::cancel(). */
using EventId = std::uint64_t;

/** Discrete-event engine with a single simulated clock. */
class Engine
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at now() + @p delay (delay >= 0).
     * @return handle for Engine::cancel().
     */
    EventId schedule(Time delay, Callback fn);

    /**
     * Schedule @p fn at absolute time @p when (when >= now()).
     * @return handle for Engine::cancel().
     */
    EventId scheduleAt(Time when, Callback fn);

    /**
     * Cancel a pending event. A cancelled event neither runs nor advances
     * the clock. Models that interrupt in-flight work (failure injection
     * aborting a training step) cancel the step's completion event.
     * @return true when the event was pending; false when it already ran,
     *         was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** Run until the event queue drains. @return final simulated time. */
    Time run();

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     * Events at exactly @p limit still execute, in FIFO scheduling order
     * among themselves (see file comment); events later than @p limit
     * stay queued. The clock always ends at @p limit or later, even when
     * the queue drains early or only later events remain.
     * @return simulated time when the run stopped (>= @p limit).
     */
    Time runUntil(Time limit);

    /**
     * Run for a further @p duration of simulated time (>= 0); equivalent
     * to runUntil(now() + duration).
     */
    Time runFor(Time duration);

    /**
     * Move the clock to @p t (>= now()) without running anything, but
     * only when every queued event is strictly later than @p t. Cancelled
     * events still in the queue count, which is conservative. Otherwise
     * nothing changes. Never runs a callback and never touches
     * eventsProcessed().
     * @return true when the clock moved to @p t.
     */
    [[nodiscard]] bool tryAdvanceTo(Time t);

    /** Number of events executed so far (cancelled events excluded). */
    std::int64_t eventsProcessed() const { return processed_; }

    /** True when no live (non-cancelled) events are pending. */
    bool idle() const { return pending_.empty(); }

#if LLM4D_AUDIT_ENABLED
    /**
     * Audit-build test seam: force the clock to @p t without running
     * events, so death tests can violate event-time monotonicity and
     * assert the auditor fires. Never compiled into regular builds.
     */
    void auditForceClockForTest(Time t) { now_ = t; }

    /**
     * Audit-build test seam: weaken tryAdvanceTo's guard so it advances
     * onto a queued event's exact time, so death tests can assert the
     * auditor catches the broken FIFO tie contract.
     */
    void auditAdmitTiesForTest() { auditAdmitTies_ = true; }
#endif

  private:
    struct Event
    {
        Time when;
        EventId seq;
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            // The FIFO tie-break itself: exact time equality is the
            // contract here, not an accident.
            if (a.when != b.when) // lint:allow(time-eq)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Pop the queue head; @return false for cancelled (skipped) events. */
    bool popInto(Event &out);

    /** Audit hook: cross-check monotonicity and FIFO tie-break order of
     *  every executed event. Compiles to nothing in regular builds. */
    void auditExecuted(Time when, EventId seq)
    {
#if LLM4D_AUDIT_ENABLED
        LLM4D_AUDIT_CHECK("engine", when >= now_,
                          "clock would move backwards: event at "
                              << when << " behind clock " << now_);
        LLM4D_AUDIT_CHECK("engine",
                          when > auditLastWhen_ ||
                              (when == auditLastWhen_ && // lint:allow(time-eq)
                               seq > auditLastSeq_),
                          "FIFO tie-break violated: event (t=" << when
                              << ", seq=" << seq << ") after (t="
                              << auditLastWhen_ << ", seq="
                              << auditLastSeq_ << ")");
        auditLastWhen_ = when;
        auditLastSeq_ = seq;
#else
        (void)when;
        (void)seq;
#endif
    }

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    /** Ids scheduled but neither executed nor cancelled. */
    std::unordered_set<EventId> pending_;
    Time now_ = 0;
    EventId nextSeq_ = 0;
    std::int64_t processed_ = 0;
#if LLM4D_AUDIT_ENABLED
    Time auditLastWhen_ = -1;     ///< timestamp of the last executed event
    EventId auditLastSeq_ = 0;    ///< its scheduling sequence number
    bool auditAdmitTies_ = false; ///< see auditAdmitTiesForTest()
#endif
};

} // namespace llm4d

#endif // LLM4D_SIMCORE_ENGINE_H_
