#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

/**
 * @file
 * Per-layer replay probes of the traced run.
 *
 * The simulators call their layers internally, where the benchmark
 * cannot place spans. After each traced op, the probes call the same
 * layers again through their public APIs, sized from the op's own
 * inputs and report, one span per call. Replay spans are top-level
 * siblings placed after the op span, so op spans stay comparable to an
 * untraced run.
 */

#include <cstdint>
#include <vector>

#include "llm4d/fault/recovery_policy.h"
#include "llm4d/plan/goodput_planner.h"
#include "llm4d/sim/train_run_sim.h"
#include "trace.h"

namespace perfbench {

/**
 * The layers of one TrainSim step of @p job: DocMask::sample/causal and
 * CpSharding::pairsOf per micro-batch, the cost models, Collective
 * pricing on the job's TP/CP/DP×CP groups and PP boundaries, and the
 * schedule's build, checkSchedule and executeSchedule.
 */
void replayStep(Tracer &t, std::int64_t op, const llm4d::TrainJobConfig &job);

/** What one TrainRunSim run consumed, for replayRun. */
struct RunInputs
{
    const llm4d::TrainRunReport *report = nullptr;
    const llm4d::RecoveryCostModel *recovery = nullptr;
    const llm4d::ClusterSpec *cluster = nullptr;
    llm4d::FaultTuning faults;
    std::uint64_t fault_seed = 0;
    std::int64_t dp = 1;
};

/**
 * The exogenous side of one run: FaultModel::next up to the report's
 * wall_seconds, RecoveryCostModel::price once per reported recovery,
 * and one Engine scheduleAt + pop per executed step and timeline event.
 */
void replayRun(Tracer &t, std::int64_t op, const RunInputs &run);

/**
 * enumeratePlans once; then, for each ranked candidate, one TrainSim
 * step and replayStep of its job, replayRun for each of its sweep
 * cells, and its best cell's TrainRunSim run once more.
 */
void replayPlan(Tracer &t, std::int64_t op, const llm4d::GoodputPlanInput &in,
                const std::vector<llm4d::GoodputPlanCandidate> &ranked);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H_
