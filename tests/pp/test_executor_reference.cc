/**
 * The executor against the algorithm it replaced, the peak in-flight
 * count by scanning and sorting one rank's events, and against its record
 * layout: each rank's program, rank-major, each rank in start order.
 * Swept over all three schedule kinds and many (pp, v, nmb, nc) shapes
 * with uneven, partly zero stage costs so that starts tie both across and
 * within ranks. Also checks that a missing op always shows up in the
 * legality check as a duplicate.
 */

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "llm4d/pp/executor.h"
#include "llm4d/pp/legality.h"

namespace llm4d {
namespace {

/** Peak in-flight by the scan-and-sort algorithm executeSchedule replaced. */
std::int64_t
referencePeakInFlight(const ExecResult &exec, std::int64_t rank)
{
    std::vector<std::pair<Time, int>> events;
    for (const OpRecord &rec : exec.records) {
        if (rec.rank != rank)
            continue;
        if (rec.op.kind == PipeOpKind::Forward)
            events.emplace_back(rec.start, +1);
        else
            events.emplace_back(rec.end, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second < b.second; // frees before allocs on tie
              });
    std::int64_t live = 0, peak = 0;
    for (const auto &[t, delta] : events) {
        live += delta;
        peak = std::max(peak, live);
    }
    return peak;
}

/** Stage costs with ties: some ops take no time at all. */
ExecConfig
unevenConfig()
{
    ExecConfig cfg;
    cfg.stage_cost = [](std::int64_t rank, std::int64_t vstage,
                        std::int64_t mb) {
        const auto unit = static_cast<double>((rank * 7 + vstage * 3 + mb) % 5);
        const double fwd = (mb + vstage) % 4 == 0 ? 0.0 : unit * 1e-4;
        return StageCost{fwd, (mb % 3 == 0 ? 0.0 : 2.0 * unit * 1e-4)};
    };
    cfg.p2p_seconds = [](std::int64_t from, std::int64_t to) {
        return (from + to) % 2 == 0 ? 0.0 : 0.5e-4;
    };
    return cfg;
}

std::vector<Schedule>
sweepSchedules()
{
    std::vector<Schedule> out;
    for (std::int64_t pp : {1, 2, 3, 4, 8}) {
        for (std::int64_t v : {1, 2, 3}) {
            for (std::int64_t nmb : {pp, 2 * pp, 3 * pp + 1}) {
                for (std::int64_t nc : {std::int64_t{1}, pp, nmb}) {
                    if (nc > nmb)
                        continue;
                    const ScheduleParams p{pp, v, nmb, nc};
                    std::vector<Schedule> built{
                        buildFlexible(p), buildAllForwardAllBackward(p)};
                    if (nc == pp && nmb % pp == 0)
                        built.push_back(buildInterleaved1F1B(p));
                    // Some flexible shapes deadlock; the executor
                    // rejects those before it runs.
                    for (Schedule &s : built) {
                        if (checkSchedule(s).legal)
                            out.push_back(std::move(s));
                    }
                }
            }
        }
    }
    std::size_t kinds[3] = {0, 0, 0};
    for (const Schedule &s : out)
        ++kinds[static_cast<std::size_t>(s.kind())];
    for (std::size_t count : kinds)
        EXPECT_GE(count, 10u) << "sweep lost a schedule kind";
    return out;
}

TEST(ExecutorReference, PeakInFlightMatchesScanAndSort)
{
    const ExecConfig cfg = unevenConfig();
    for (const Schedule &s : sweepSchedules()) {
        const ScheduleParams &p = s.params();
        const ExecResult exec = executeSchedule(s, cfg);
        ASSERT_EQ(static_cast<std::int64_t>(exec.peak_in_flight.size()),
                  p.pp);
        for (std::int64_t r = 0; r < p.pp; ++r) {
            EXPECT_EQ(exec.peakInFlight(r), referencePeakInFlight(exec, r))
                << scheduleKindName(s.kind()) << " pp=" << p.pp
                << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc
                << " rank " << r;
        }
    }
}

TEST(ExecutorReference, RecordsAreTheSortedPerRankRecords)
{
    const ExecConfig cfg = unevenConfig();
    for (const Schedule &s : sweepSchedules()) {
        const ScheduleParams &p = s.params();
        SCOPED_TRACE(testing::Message()
                     << scheduleKindName(s.kind()) << " pp=" << p.pp
                     << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc);
        const ExecResult exec = executeSchedule(s, cfg);

        // Rank 0's program, then rank 1's, and so on; within a rank each
        // op starts no earlier than its predecessor ends.
        std::size_t i = 0;
        for (std::int64_t r = 0; r < p.pp; ++r) {
            for (std::size_t pc = 0; pc < s.program(r).size(); ++pc, ++i) {
                ASSERT_LT(i, exec.records.size());
                const OpRecord &rec = exec.records[i];
                ASSERT_EQ(rec.rank, r) << "record " << i;
                ASSERT_EQ(rec.op, s.program(r)[pc]) << "record " << i;
                if (pc > 0) {
                    ASSERT_LE(exec.records[i - 1].end, rec.start)
                        << "record " << i;
                }
            }
        }
        ASSERT_EQ(i, exec.records.size());
    }
}

TEST(ExecutorReference, AMissingOpShowsAsADuplicate)
{
    // Each rank runs exactly 2·tmb ops over its own 2·tmb cells, so an op
    // replaced by a copy of another op on the same rank drops one cell
    // and repeats another. The structural check names the repeat.
    for (const Schedule &s : sweepSchedules()) {
        const ScheduleParams &p = s.params();
        std::vector<std::vector<PipeOp>> progs;
        for (std::int64_t r = 0; r < p.pp; ++r)
            progs.push_back(s.program(r));
        for (std::vector<PipeOp> &prog : progs) {
            const std::size_t n = prog.size();
            for (std::size_t i = 0; i < n; ++i) {
                const PipeOp original = prog[i];
                for (const std::size_t j : {(i + 1) % n, (i + n / 2) % n}) {
                    prog[i] = prog[j];
                    const LegalityResult res =
                        checkSchedule(Schedule(s.kind(), p, progs));
                    ASSERT_EQ(res.reason.rfind("duplicate ", 0), 0u)
                        << scheduleKindName(s.kind()) << " pp=" << p.pp
                        << " v=" << p.v << " nmb=" << p.nmb << " nc=" << p.nc
                        << " op " << i << " := op " << j << ": "
                        << res.reason;
                    prog[i] = original;
                }
            }
        }
    }
}

} // namespace
} // namespace llm4d
