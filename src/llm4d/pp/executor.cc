#include "llm4d/pp/executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

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

/**
 * Reorder rank-major @p records (rank r's ops at [base[r], base[r + 1]) in
 * program order) into (start, rank, program order). Each rank's run is
 * already sorted by start, so a min-heap over the per-rank cursors yields
 * each record's final slot; the permutation is then applied in place.
 */
void
mergeByStart(std::vector<OpRecord> &records,
             const std::vector<std::size_t> &base)
{
    struct Head
    {
        Time start;
        std::size_t rank;
    };
    auto after = [](const Head &a, const Head &b) {
        return a.start != b.start ? a.start > b.start : a.rank > b.rank;
    };
    std::vector<std::size_t> cursor(base.begin(), base.end() - 1);
    std::vector<Head> heap;
    for (std::size_t r = 0; r < cursor.size(); ++r) {
        if (cursor[r] < base[r + 1])
            heap.push_back(Head{records[cursor[r]].start, r});
    }
    std::make_heap(heap.begin(), heap.end(), after);

    // 32-bit slots keep the extra memory at a twelfth of the records'.
    LLM4D_ASSERT(records.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "too many records for 32-bit slots");
    std::vector<std::uint32_t> slot(records.size());
    for (std::uint32_t next_slot = 0; !heap.empty(); ++next_slot) {
        const std::size_t r = heap.front().rank;
        slot[cursor[r]++] = next_slot;
        if (cursor[r] == base[r + 1]) {
            std::pop_heap(heap.begin(), heap.end(), after);
            heap.pop_back();
            continue;
        }
        // Replace the top with the rank's next record and sift it down.
        const Head head{records[cursor[r]].start, r};
        std::size_t i = 0;
        for (std::size_t c = 1; c < heap.size(); c = 2 * i + 1) {
            if (c + 1 < heap.size() && after(heap[c], heap[c + 1]))
                ++c;
            if (!after(head, heap[c]))
                break;
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = head;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
        while (slot[i] != i) {
            const std::size_t j = slot[i];
            std::swap(records[i], records[j]);
            std::swap(slot[i], slot[j]);
        }
    }
}

} // namespace

ExecResult
executeSchedule(const Schedule &schedule, const ExecConfig &config)
{
    LLM4D_CHECK(config.stage_cost && config.p2p_seconds,
                "ExecConfig callbacks must be set");
    const LegalityResult legal = checkSchedule(schedule);
    LLM4D_CHECK(legal.legal, "illegal schedule: " << legal.reason);

    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    auto cell = [&](std::int64_t g, std::int64_t mb) {
        return static_cast<std::size_t>(g * p.nmb + mb);
    };

    constexpr Time kPending = -1;
    std::vector<Time> fwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> bwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> rank_free(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);

    ExecResult result;
    result.busy.assign(static_cast<std::size_t>(p.pp), 0);
    // Records are written rank-major: rank r's ops fill
    // [base[r], base[r + 1]) in program order.
    std::vector<std::size_t> base(static_cast<std::size_t>(p.pp) + 1, 0);
    for (std::int64_t r = 0; r < p.pp; ++r) {
        base[static_cast<std::size_t>(r) + 1] =
            base[static_cast<std::size_t>(r)] + schedule.program(r).size();
    }
    result.records.resize(base.back());

    // Topological sweep: process each op once its dependency has a
    // computed end time. Times are DAG-determined, so sweep order does
    // not affect the result; legality guarantees termination.
    auto dep_ready = [&](std::int64_t rank, const PipeOp &op,
                         Time &ready_at) {
        const std::int64_t g = schedule.globalStage(rank, op.stage);
        if (op.kind == PipeOpKind::Forward) {
            if (g == 0) {
                ready_at = 0;
                return true;
            }
            const Time producer = fwd_end[cell(g - 1, op.mb)];
            if (producer == kPending)
                return false;
            const std::int64_t src = schedule.rankOfGlobalStage(g - 1);
            ready_at = producer +
                       secondsToTime(config.p2p_seconds(src, rank));
            return true;
        }
        const Time own_fwd = fwd_end[cell(g, op.mb)];
        if (own_fwd == kPending)
            return false;
        if (g == p.numStages() - 1) {
            ready_at = own_fwd;
            return true;
        }
        const Time producer = bwd_end[cell(g + 1, op.mb)];
        if (producer == kPending)
            return false;
        const std::int64_t src = schedule.rankOfGlobalStage(g + 1);
        ready_at = std::max(
            own_fwd,
            producer + secondsToTime(config.p2p_seconds(src, rank)));
        return true;
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::int64_t r = 0; r < p.pp; ++r) {
            const auto &prog = schedule.program(r);
            auto &cursor = pc[static_cast<std::size_t>(r)];
            Time ready_at = 0;
            while (cursor < prog.size() &&
                   dep_ready(r, prog[cursor], ready_at)) {
                const PipeOp &op = prog[cursor];
                const std::int64_t g = schedule.globalStage(r, op.stage);
                const StageCost cost = config.stage_cost(r, op.stage, op.mb);
                const double dur_s = op.kind == PipeOpKind::Forward
                                         ? cost.fwd_seconds
                                         : cost.bwd_seconds;
                LLM4D_ASSERT(dur_s >= 0.0, "negative stage cost");
                const Time start =
                    std::max(rank_free[static_cast<std::size_t>(r)],
                             ready_at);
                const Time end = start + secondsToTime(dur_s);
                rank_free[static_cast<std::size_t>(r)] = end;
                result.busy[static_cast<std::size_t>(r)] += end - start;
                (op.kind == PipeOpKind::Forward ? fwd_end
                                                : bwd_end)[cell(g, op.mb)] =
                    end;
                result.records[base[static_cast<std::size_t>(r)] +
                               cursor] = OpRecord{r, op, start, end};
                result.makespan = std::max(result.makespan, end);
                ++cursor;
                progress = true;
            }
        }
    }
    result.peak_in_flight.resize(static_cast<std::size_t>(p.pp));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        const auto ur = static_cast<std::size_t>(r);
        LLM4D_ASSERT(pc[ur] == schedule.program(r).size(),
                     "executor stalled despite legality check");
        result.peak_in_flight[ur] =
            rankPeakInFlight(result.records.data() + base[ur],
                             result.records.data() + base[ur + 1]);
    }
    mergeByStart(result.records, base);
    return result;
}

} // namespace llm4d
