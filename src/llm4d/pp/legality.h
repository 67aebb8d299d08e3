#ifndef LLM4D_PP_LEGALITY_H_
#define LLM4D_PP_LEGALITY_H_

/**
 * @file
 * Schedule legality checking.
 *
 * A pipeline schedule is legal when (a) every (global stage, micro-batch)
 * forward and backward appears exactly once, on the rank that hosts the
 * stage, and (b) executing each rank's stream in order — blocking on data
 * from neighbour stages — makes progress to completion (no deadlock).
 * Part (b) is answered by detail::sweepSchedule, the one dependency sweep,
 * which executeSchedule also runs to time the ops: the checker and the
 * executor share it, so a schedule the checker accepts runs to completion.
 */

#include <string>

#include "llm4d/pp/schedule.h"

namespace llm4d {

struct ExecConfig;
struct ExecResult;

/** Result of a legality check. */
struct LegalityResult
{
    bool legal = false;
    std::string reason; ///< empty when legal; diagnostic otherwise

    explicit operator bool() const { return legal; }
};

/** Verify structural completeness and deadlock-freedom of a schedule. */
LegalityResult checkSchedule(const Schedule &schedule);

namespace detail {

/**
 * The dependency sweep behind checkSchedule and executeSchedule. Checks
 * part (a); if it holds, runs each rank's stream in program order, an op
 * starting once its rank is free and its producer's output has arrived
 * (see executor.h), and writes @p result's records (rank-major, in
 * program order), busy and makespan. Returns the first structural fault
 * or the deadlock of the first stalled rank; @p result is then partial.
 * Readiness asks only whether the producer has run, so the verdict does
 * not depend on @p config's prices.
 */
LegalityResult sweepSchedule(const Schedule &schedule,
                             const ExecConfig &config, ExecResult &result);

} // namespace detail

} // namespace llm4d

#endif // LLM4D_PP_LEGALITY_H_
