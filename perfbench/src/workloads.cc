#include "workloads.h"

#include <vector>

#include "llm4d/simcore/rng.h"

namespace perfbench {

using namespace llm4d;

namespace {

// Benchmark-private RNG streams: one per workload, so a seed draws
// unrelated inputs for each.
constexpr std::uint64_t kStepSweepStream = 0xbe01;
constexpr std::uint64_t kRunLongStream = 0xbe02;
constexpr std::uint64_t kPlanWornStream = 0xbe03;

/** The generator of op @p index: its inputs depend on nothing else. */
Rng
opRng(std::uint64_t seed, std::int64_t index, std::uint64_t stream)
{
    std::uint64_t state = seed;
    const std::uint64_t a = splitMix64(state);
    state = a ^ static_cast<std::uint64_t>(index);
    return Rng(splitMix64(state), stream);
}

struct StepStratum
{
    std::int64_t seq = 0;
    std::int64_t cp = 1;
    std::int64_t pp = 1;
    ScheduleKind schedule = ScheduleKind::Flexible;
    bool doc_mask = false;
};

/**
 * Every (seq, cp, pp) of the production 16K-GPU cluster at tp8 whose
 * micro-batch count is a positive multiple of pp, so all three
 * schedules are legal, times the three schedules, times causal vs
 * document mask.
 */
const std::vector<StepStratum> &
stepStrata()
{
    static const std::vector<StepStratum> strata = [] {
        constexpr std::int64_t kTp = 8;
        const ClusterSpec cluster = ClusterSpec::llama3Production();
        const std::int64_t gbs_tokens = TrainJobConfig{}.global_batch_tokens;
        std::vector<StepStratum> out;
        for (const std::int64_t seq : {8192, 32768, 131072}) {
            for (const std::int64_t cp : {1, 2, 4, 8, 16}) {
                for (const std::int64_t pp : {4, 8, 16}) {
                    const std::int64_t dp =
                        cluster.numGpus() / (kTp * cp * pp);
                    const std::int64_t seqs = gbs_tokens / seq;
                    if (seqs % dp != 0)
                        continue;
                    const std::int64_t nmb = seqs / dp;
                    if (nmb < pp || nmb % pp != 0)
                        continue;
                    for (const ScheduleKind kind :
                         {ScheduleKind::Interleaved1F1B,
                          ScheduleKind::AllForwardAllBackward,
                          ScheduleKind::Flexible}) {
                        for (const bool doc : {false, true})
                            out.push_back({seq, cp, pp, kind, doc});
                    }
                }
            }
        }
        return out;
    }();
    return strata;
}

constexpr std::int64_t kRunLongBlock = 64;
constexpr std::int64_t kRunLongSteps = 100000;

constexpr std::int64_t kPlanWornBlock = 8;

/** plan_worn divides the fatal and host MTBFs by kPlanWornFatalWear and
 *  the straggler and NIC-flap MTBFs by kPlanWornDegradeWear. */
constexpr double kPlanWornFatalWear = 24.0;
constexpr double kPlanWornDegradeWear = 4.0;

TrainJobConfig
stepOp(std::uint64_t seed, std::int64_t index)
{
    const std::vector<StepStratum> &strata = stepStrata();
    const StepStratum &s =
        strata[static_cast<std::size_t>(index) % strata.size()];
    Rng rng = opRng(seed, index, kStepSweepStream);
    TrainJobConfig job;
    job.par = ParallelismConfig{8, s.cp, s.pp,
                                job.cluster.numGpus() / (8 * s.cp * s.pp)};
    job.seq = s.seq;
    job.schedule = s.schedule;
    job.seed = rng.next();
    job.doc_mask_mean = s.doc_mask ? rng.uniform(1024.0, 16384.0) : 0.0;
    return job;
}

TrainRunConfig
runOp(std::uint64_t seed, std::int64_t index)
{
    Rng rng = opRng(seed, index, kRunLongStream);
    TrainRunConfig run;
    run.total_steps = kRunLongSteps;
    run.seed = rng.next();
    return run;
}

GoodputPlanInput
planOp(std::uint64_t seed, std::int64_t index)
{
    // Strata: 2K or 4K GPUs times a 1500, 2000, 2500 or 3000-step
    // horizon.
    Rng rng = opRng(seed, index, kPlanWornStream);
    const std::int64_t ngpu = index % 2 == 0 ? 2048 : 4096;
    const std::int64_t horizon = 1500 + 500 * ((index / 2) % 4);
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(ngpu);
    // Wear the small fleet hard: at the production MTBFs a 2K-4K fleet
    // sees almost no fatal fault inside a few thousand steps.
    GpuSpec &gpu = in.base.cluster.node.gpu;
    gpu.fatal_mtbf_hours /= kPlanWornFatalWear;
    in.base.cluster.node.host_mtbf_hours /= kPlanWornFatalWear;
    gpu.straggler_mtbf_hours /= kPlanWornDegradeWear;
    in.base.cluster.node.nic_flap_mtbf_hours /= kPlanWornDegradeWear;
    // Half the production 1K tokens per GPU: fewer micro-batches make
    // each cell's TrainSim cheaper, so a run times more queries.
    in.base.global_batch_tokens = ngpu * 512;
    in.top_k = 1;
    in.horizon_steps = horizon;
    in.fault_seed = rng.next();
    // Repairs fast enough that regrow and migrate-home happen inside
    // the horizon.
    in.repairs.gpu_repair_mean_hours = 0.1;
    in.repairs.host_repair_mean_hours = 0.15;
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.placement_migration = true;
    in.straggler_correlation_options = {false, true};
    return in;
}

} // namespace

std::optional<Workload>
parseWorkload(std::string_view name)
{
    for (const Workload w :
         {Workload::StepSweep, Workload::RunLong, Workload::PlanWorn}) {
        if (name == toString(w))
            return w;
    }
    return std::nullopt;
}

const char *
toString(Workload w)
{
    switch (w) {
      case Workload::StepSweep:
        return "step_sweep";
      case Workload::RunLong:
        return "run_long";
      case Workload::PlanWorn:
        return "plan_worn";
    }
    return "?";
}

std::int64_t
blockSize(Workload w)
{
    switch (w) {
      case Workload::StepSweep:
        return static_cast<std::int64_t>(stepStrata().size());
      case Workload::RunLong:
        return kRunLongBlock;
      case Workload::PlanWorn:
        return kPlanWornBlock;
    }
    return 1;
}

std::int64_t
warmupOps(Workload w)
{
    switch (w) {
      case Workload::StepSweep:
        return blockSize(w);
      case Workload::RunLong:
        return 8;
      case Workload::PlanWorn:
        break;
    }
    return 1;
}

OpInput
makeOp(Workload w, std::uint64_t seed, std::int64_t index)
{
    switch (w) {
      case Workload::StepSweep:
        return stepOp(seed, index);
      case Workload::RunLong:
        return runOp(seed, index);
      case Workload::PlanWorn:
        break;
    }
    return planOp(seed, index);
}

} // namespace perfbench
