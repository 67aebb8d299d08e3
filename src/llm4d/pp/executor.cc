#include "llm4d/pp/executor.h"

#include <algorithm>
#include <cstdint>

#include "llm4d/pp/legality.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

ExecConfig
ExecConfig::uniform(double fwd_seconds, double bwd_seconds,
                    double p2p_seconds)
{
    ExecConfig cfg;
    cfg.stage_cost = [=](std::int64_t, std::int64_t, std::int64_t) {
        return StageCost{fwd_seconds, bwd_seconds};
    };
    cfg.p2p_seconds = [=](std::int64_t, std::int64_t) {
        return p2p_seconds;
    };
    return cfg;
}

double
ExecResult::bubbleRatio(std::int64_t rank) const
{
    const Time b = busy[static_cast<std::size_t>(rank)];
    LLM4D_ASSERT(b > 0, "rank did no work");
    return static_cast<double>(makespan - b) / static_cast<double>(b);
}

double
ExecResult::maxBubbleRatio() const
{
    double worst = 0.0;
    for (std::size_t r = 0; r < busy.size(); ++r)
        worst = std::max(worst,
                         bubbleRatio(static_cast<std::int64_t>(r)));
    return worst;
}

double
ExecResult::overallBubbleRatio() const
{
    Time total_busy = 0;
    for (Time b : busy)
        total_busy += b;
    const Time total_span =
        makespan * static_cast<Time>(busy.size());
    return static_cast<double>(total_span - total_busy) /
           static_cast<double>(total_busy);
}

Time
ExecResult::opEnd(std::int64_t rank, PipeOpKind kind, std::int64_t vstage,
                  std::int64_t mb) const
{
    for (const OpRecord &rec : records) {
        if (rec.rank == rank && rec.op.kind == kind &&
            rec.op.stage == vstage && rec.op.mb == mb)
            return rec.end;
    }
    LLM4D_PANIC("operation not found in execution record");
}

std::int64_t
ExecResult::peakInFlight(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 &&
                     rank < static_cast<std::int64_t>(peak_in_flight.size()),
                 "pp rank out of range");
    return peak_in_flight[static_cast<std::size_t>(rank)];
}

namespace {

/**
 * Peak in-flight count over one rank's records in program order: +1 at a
 * forward's start, -1 at a backward's end, frees before allocs on a tie.
 * Both streams are nondecreasing in program order (an op starts no earlier
 * than its predecessor ends), so a two-cursor merge replaces a sort.
 */
std::int64_t
rankPeakInFlight(const OpRecord *first, const OpRecord *last)
{
    auto next = [last](const OpRecord *rec, PipeOpKind kind) {
        while (rec != last && rec->op.kind != kind)
            ++rec;
        return rec;
    };
    const OpRecord *fwd = next(first, PipeOpKind::Forward);
    const OpRecord *bwd = next(first, PipeOpKind::Backward);
    std::int64_t live = 0, peak = 0;
    while (fwd != last) {
        if (bwd != last && bwd->end <= fwd->start) {
            --live;
            bwd = next(bwd + 1, PipeOpKind::Backward);
        } else {
            peak = std::max(peak, ++live);
            fwd = next(fwd + 1, PipeOpKind::Forward);
        }
    }
    return peak;
}

} // namespace

ExecResult
executeSchedule(const Schedule &schedule, const ExecConfig &config)
{
    LLM4D_CHECK(config.stage_cost && config.p2p_seconds,
                "ExecConfig callbacks must be set");
    ExecResult result;
    const LegalityResult legal =
        detail::sweepSchedule(schedule, config, result);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);

    const auto pp = static_cast<std::size_t>(schedule.params().pp);
    const std::size_t ops_per_rank = result.records.size() / pp;
    for (std::size_t r = 0; r < pp; ++r) {
        const OpRecord *first = result.records.data() + r * ops_per_rank;
        result.peak_in_flight.push_back(
            rankPeakInFlight(first, first + ops_per_rank));
    }
    return result;
}

} // namespace llm4d
