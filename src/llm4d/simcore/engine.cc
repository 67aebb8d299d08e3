#include "llm4d/simcore/engine.h"

#include <utility>

#include "llm4d/simcore/common.h"

namespace llm4d {

EventId
Engine::schedule(Time delay, Callback fn)
{
    LLM4D_ASSERT(delay >= 0, "negative event delay " << delay);
    return scheduleAt(now_ + delay, std::move(fn));
}

EventId
Engine::scheduleAt(Time when, Callback fn)
{
    LLM4D_ASSERT(when >= now_, "event scheduled in the past: " << when
                               << " < " << now_);
    // Redundant with the assert above by design: the auditor re-states
    // the invariant so the audit tier still holds if the everyday guard
    // is ever weakened.
    LLM4D_AUDIT_CHECK("engine", when >= now_,
                      "scheduling into the past: " << when << " < " << now_);
    const EventId id = nextSeq_++;
    queue_.push(Event{when, id, std::move(fn)});
    pending_.insert(id);
    return id;
}

bool
Engine::cancel(EventId id)
{
    // Cancellation is lazy: the event stays queued and is skipped when it
    // reaches the head, so cancel() is O(1) and the queue never reorders.
    // Removing from pending_ both marks the cancellation and rejects ids
    // that already ran, were already cancelled, or never existed.
    return pending_.erase(id) > 0;
}

bool
Engine::tryAdvanceTo(Time t)
{
    LLM4D_ASSERT(t >= now_, "clock advanced into the past: " << t << " < "
                                                            << now_);
    // Strictly before the head: a queued event at exactly t was
    // scheduled first, so it must run before work done inline at t.
    Time guard = t;
#if LLM4D_AUDIT_ENABLED
    if (auditAdmitTies_)
        guard = t - 1;
#endif
    if (!queue_.empty() && queue_.top().when <= guard)
        return false;
    // Redundant with the guard above by design, like scheduleAt's
    // re-stated assert: the audit tier still holds if it is weakened.
    LLM4D_AUDIT_CHECK("engine", queue_.empty() || queue_.top().when > t,
                      "advanced to " << t << " at or past the queued event at "
                                     << queue_.top().when);
    now_ = t;
    return true;
}

bool
Engine::popInto(Event &out)
{
    // Copying the top is unavoidable with std::priority_queue; the
    // callback is moved out via const_cast, which is safe because the
    // element is popped immediately after.
    auto &top = const_cast<Event &>(queue_.top());
    out = Event{top.when, top.seq, std::move(top.fn)};
    queue_.pop();
    return pending_.erase(out.seq) > 0;
}

Time
Engine::run()
{
    while (!queue_.empty()) {
        Event ev;
        if (!popInto(ev))
            continue; // cancelled: no callback, no clock advance
        auditExecuted(ev.when, ev.seq);
        now_ = ev.when;
        ++processed_;
        ev.fn();
    }
    LLM4D_AUDIT_CHECK("engine", pending_.empty(),
                      "drained queue left " << pending_.size()
                          << " ids pending: cancellation bookkeeping "
                             "diverged from the queue");
    return now_;
}

Time
Engine::runUntil(Time limit)
{
    while (!queue_.empty() && queue_.top().when <= limit) {
        Event ev;
        if (!popInto(ev))
            continue;
        auditExecuted(ev.when, ev.seq);
        now_ = ev.when;
        ++processed_;
        ev.fn();
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

Time
Engine::runFor(Time duration)
{
    LLM4D_ASSERT(duration >= 0, "negative run duration " << duration);
    return runUntil(now_ + duration);
}

} // namespace llm4d
