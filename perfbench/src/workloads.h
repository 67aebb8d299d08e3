#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads: each is an unbounded stream of ops whose
 * inputs are a pure function of (workload seed, op index).
 *
 * Ops come in blocks. Every block walks the same fixed list of strata
 * (the input properties that set an op's cost) in the same order, and
 * the seed draws the rest: document-mask lengths, job seeds and fault
 * seeds. So every seed runs the same mix of op sizes, and a run cut
 * short after any op is missing at most one partial block. A block is
 * also the unit of the traced run and of the printed digest.
 */

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>

#include "llm4d/plan/goodput_planner.h"
#include "llm4d/sim/train_run_sim.h"

namespace perfbench {

enum class Workload
{
    StepSweep, ///< one TrainSim construction + run per op
    RunLong,   ///< one long TrainRunSim construction + run per op
    PlanWorn,  ///< one planGoodput query on a worn fleet per op
};

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);
[[nodiscard]] const char *toString(Workload w);

/** One op's input: the argument of the single public call it times. */
using OpInput = std::variant<llm4d::TrainJobConfig, llm4d::TrainRunConfig,
                             llm4d::GoodputPlanInput>;

/** Ops per block: the strata every block walks through once. */
[[nodiscard]] std::int64_t blockSize(Workload w);

/**
 * Ops 0 .. warmupOps(w) - 1 of seed 0 are set-up's warm-up: every
 * step_sweep stratum once, 8 run_long ops, one plan_worn query. Enough
 * that set-up time is mostly op time rather than process start.
 */
[[nodiscard]] std::int64_t warmupOps(Workload w);

/** Input of op @p index of workload @p w under @p seed. */
[[nodiscard]] OpInput makeOp(Workload w, std::uint64_t seed,
                             std::int64_t index);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
