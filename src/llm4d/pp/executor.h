#ifndef LLM4D_PP_EXECUTOR_H_
#define LLM4D_PP_EXECUTOR_H_

/**
 * @file
 * Timed execution of a pipeline schedule.
 *
 * The executor interprets per-rank instruction streams with the one
 * dependency sweep the legality checker also runs (detail::sweepSchedule
 * in legality.h), pricing each operation and each cross-rank
 * activation/gradient hand-off:
 *
 *   start(op) = max(end(previous op on the rank),
 *                   end(producer op) + p2p transfer)
 *
 * P2P sends are asynchronous (the producer never blocks), matching the
 * paper's "decoupled asynchronous P2P send and receive" (Section 5.2).
 * Idle gaps that open on the critical path are exactly the pipeline
 * bubbles of Figures 3 and 9.
 */

#include <functional>
#include <vector>

#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Cost of one stage execution for one micro-batch. */
struct StageCost
{
    double fwd_seconds = 0.0;
    double bwd_seconds = 0.0;
};

/** Pricing callbacks for schedule execution. */
struct ExecConfig
{
    /** Cost of (rank, virtual stage) for micro-batch @p mb. */
    std::function<StageCost(std::int64_t rank, std::int64_t vstage,
                            std::int64_t mb)>
        stage_cost;

    /** Seconds to move one micro-batch's boundary tensor rank->rank. */
    std::function<double(std::int64_t from_rank, std::int64_t to_rank)>
        p2p_seconds;

    /** Convenience: constant stage cost and constant P2P time. */
    static ExecConfig uniform(double fwd_seconds, double bwd_seconds,
                              double p2p_seconds);
};

/** One executed operation with its time span. */
struct OpRecord
{
    std::int64_t rank = 0;
    PipeOp op;
    Time start = 0;
    Time end = 0;
};

/** Result of executing a schedule. */
struct ExecResult
{
    /**
     * Every executed op, rank-major: rank 0's records in program order,
     * then rank 1's, and so on. Each rank runs 2 * tmb ops, so rank r's
     * records start at index r * 2 * tmb.
     */
    std::vector<OpRecord> records;
    Time makespan = 0;
    std::vector<Time> busy;        ///< per-rank total compute time
    std::vector<std::int64_t> peak_in_flight; ///< per rank, see peakInFlight

    /** Idle-over-compute bubble ratio of one rank (paper Section 3.1.1). */
    double bubbleRatio(std::int64_t rank) const;

    /** Worst per-rank bubble ratio. */
    double maxBubbleRatio() const;

    /** Pipeline-wide ratio: total idle over total compute. */
    double overallBubbleRatio() const;

    /** End time of a specific operation (asserts it exists). */
    Time opEnd(std::int64_t rank, PipeOpKind kind, std::int64_t vstage,
               std::int64_t mb) const;

    /**
     * Peak number of simultaneously in-flight micro-batches on a rank:
     * forwards executed minus backwards completed, maximized over time.
     * This drives activation memory (Section 3.1.1). Frees sort before
     * allocs on a tie. Computed once by executeSchedule; O(1) lookup.
     */
    std::int64_t peakInFlight(std::int64_t rank) const;
};

/**
 * Execute @p schedule under @p config in one dependency sweep, O(ops).
 * Aborts on an illegal schedule with "illegal schedule: " and the reason
 * checkSchedule gives for it: the sweep checks the structure first and
 * reports the deadlock if a rank's stream stalls.
 */
ExecResult executeSchedule(const Schedule &schedule,
                           const ExecConfig &config);

} // namespace llm4d

#endif // LLM4D_PP_EXECUTOR_H_
