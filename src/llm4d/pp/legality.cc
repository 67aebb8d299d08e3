#include "llm4d/pp/legality.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "llm4d/pp/executor.h"
#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** Flat index for (global stage, micro-batch). */
std::size_t
cellIndex(const ScheduleParams &p, std::int64_t g, std::int64_t mb)
{
    return static_cast<std::size_t>(g * p.nmb + mb);
}

/**
 * Structural check: every cell exactly once per direction. Finding no
 * duplicate is enough. The Schedule constructor fixes each rank's
 * program at 2·tmb ops, and in-range ops of rank r can only name the
 * tmb forward and tmb backward cells of r's own global stages. With no
 * duplicate those 2·tmb ops hit 2·tmb distinct cells out of 2·tmb, so
 * every cell of every rank is present.
 */
LegalityResult
checkStructure(const Schedule &schedule)
{
    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    std::vector<int> fwd_seen(static_cast<std::size_t>(cells), 0);
    std::vector<int> bwd_seen(static_cast<std::size_t>(cells), 0);
    for (std::int64_t r = 0; r < p.pp; ++r) {
        for (const PipeOp &op : schedule.program(r)) {
            if (op.stage < 0 || op.stage >= p.v || op.mb < 0 ||
                op.mb >= p.nmb) {
                std::ostringstream os;
                os << "rank " << r << " op references stage " << op.stage
                   << " mb " << op.mb << " outside the schedule shape";
                return {false, os.str()};
            }
            const std::int64_t g = schedule.globalStage(r, op.stage);
            auto &seen =
                op.kind == PipeOpKind::Forward ? fwd_seen : bwd_seen;
            if (++seen[cellIndex(p, g, op.mb)] > 1) {
                std::ostringstream os;
                os << "duplicate "
                   << (op.kind == PipeOpKind::Forward ? "forward"
                                                      : "backward")
                   << " of stage " << g << " mb " << op.mb << " on rank "
                   << r;
                return {false, os.str()};
            }
        }
    }
    return {true, ""};
}

} // namespace

LegalityResult
checkSchedule(const Schedule &schedule)
{
    ExecResult unpriced;
    return detail::sweepSchedule(
        schedule, ExecConfig::uniform(0.0, 0.0, 0.0), unpriced);
}

LegalityResult
detail::sweepSchedule(const Schedule &schedule, const ExecConfig &config,
                      ExecResult &result)
{
    if (LegalityResult shape = checkStructure(schedule); !shape)
        return shape;

    // --- Progress check: run each rank's stream in program order. ---
    // Times are DAG-determined, so sweep order does not affect them, and
    // the cursors the sweep stops at are the same whatever the prices.
    const ScheduleParams &p = schedule.params();
    const std::int64_t cells = p.numStages() * p.nmb;
    constexpr Time kPending = -1;
    std::vector<Time> fwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> bwd_end(static_cast<std::size_t>(cells), kPending);
    std::vector<Time> rank_free(static_cast<std::size_t>(p.pp), 0);
    std::vector<std::size_t> pc(static_cast<std::size_t>(p.pp), 0);
    const auto ops_per_rank = static_cast<std::size_t>(2 * p.tmb());
    result.records.assign(static_cast<std::size_t>(p.pp) * ops_per_rank,
                          OpRecord{});
    result.busy.assign(static_cast<std::size_t>(p.pp), 0);
    result.makespan = 0;

    // When @p op's inputs are on @p rank, or kPending while a producer
    // has not run.
    auto ready_at = [&](std::int64_t rank, const PipeOp &op) {
        const std::int64_t g = schedule.globalStage(rank, op.stage);
        auto arrival = [&](const std::vector<Time> &end, std::int64_t from) {
            const Time produced = end[cellIndex(p, from, op.mb)];
            if (produced == kPending)
                return kPending;
            const std::int64_t src = schedule.rankOfGlobalStage(from);
            return produced + secondsToTime(config.p2p_seconds(src, rank));
        };
        if (op.kind == PipeOpKind::Forward)
            return g == 0 ? Time{0} : arrival(fwd_end, g - 1);
        const Time own_fwd = fwd_end[cellIndex(p, g, op.mb)];
        if (own_fwd == kPending || g == p.numStages() - 1)
            return own_fwd;
        const Time grad = arrival(bwd_end, g + 1);
        return grad == kPending ? kPending : std::max(own_fwd, grad);
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::int64_t r = 0; r < p.pp; ++r) {
            const auto ur = static_cast<std::size_t>(r);
            const auto &prog = schedule.program(r);
            auto &cursor = pc[ur];
            for (; cursor < prog.size(); ++cursor) {
                const PipeOp &op = prog[cursor];
                const Time ready = ready_at(r, op);
                if (ready == kPending)
                    break;
                const StageCost cost = config.stage_cost(r, op.stage, op.mb);
                const double dur_s = op.kind == PipeOpKind::Forward
                                         ? cost.fwd_seconds
                                         : cost.bwd_seconds;
                LLM4D_ASSERT(dur_s >= 0.0, "negative stage cost");
                const Time start = std::max(rank_free[ur], ready);
                const Time end = start + secondsToTime(dur_s);
                rank_free[ur] = end;
                result.busy[ur] += end - start;
                (op.kind == PipeOpKind::Forward ? fwd_end : bwd_end)
                    [cellIndex(p, schedule.globalStage(r, op.stage), op.mb)] =
                    end;
                result.records[ur * ops_per_rank + cursor] =
                    OpRecord{r, op, start, end};
                result.makespan = std::max(result.makespan, end);
                progress = true;
            }
        }
    }

    for (std::int64_t r = 0; r < p.pp; ++r) {
        const auto &prog = schedule.program(r);
        const auto cursor = pc[static_cast<std::size_t>(r)];
        if (cursor < prog.size()) {
            const PipeOp &op = prog[cursor];
            std::ostringstream os;
            os << "deadlock: rank " << r << " blocked at op " << cursor
               << " ("
               << (op.kind == PipeOpKind::Forward ? "forward" : "backward")
               << " stage " << op.stage << " mb " << op.mb << ")";
            return {false, os.str()};
        }
    }
    return {true, ""};
}

} // namespace llm4d
