#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

/**
 * @file
 * Running one op: the timed public-API call, its output check and
 * digest, and, when traced, its per-layer replay.
 */

#include <cstdint>

#include "outputs.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct OpResult
{
    /** Host time of the public-API calls alone (no check, no replay). */
    double host_seconds = 0.0;

    /** Simulated steps priced: 1 per TrainSim::run, committed + rolled
     *  back steps summed over every TrainRunSim run. */
    std::int64_t sim_steps = 0;

    /** Digest of every field of the op's report(s). */
    std::uint64_t digest = 0;

    /** First violated output invariant, if any. */
    Failure failure;
};

/**
 * Run op @p id with input @p op. With a tracer, the op records an "op"
 * span around the timed calls with one child span per call, a
 * "bench.check" span, and then its replay probes; without one it
 * records nothing.
 */
[[nodiscard]] OpResult runOp(const OpInput &op, Tracer *tracer,
                             std::int64_t id);

} // namespace perfbench

#endif // PERFBENCH_OPS_H_
