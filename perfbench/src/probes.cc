#include "probes.h"

#include <algorithm>
#include <optional>

#include "llm4d/cp/sharding.h"
#include "llm4d/fault/fault_model.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/legality.h"
#include "llm4d/simcore/engine.h"
#include "llm4d/simcore/rng_streams.h"
#include "llm4d/tensor/doc_mask.h"

namespace perfbench {

using namespace llm4d;

namespace {

/** Receives probe results so that no call is dead code. */
volatile double g_sink = 0.0;

Schedule
buildSchedule(ScheduleKind kind, const ScheduleParams &sp)
{
    switch (kind) {
      case ScheduleKind::Interleaved1F1B:
        return buildInterleaved1F1B(sp);
      case ScheduleKind::AllForwardAllBackward:
        return buildAllForwardAllBackward(sp);
      case ScheduleKind::Flexible:
        break;
    }
    return buildFlexible(sp);
}

/** An Engine callback that schedules its successor one tick later
 *  until @p left reaches zero: the shape of a per-step event loop. */
struct StepChain
{
    Engine *engine;
    std::int64_t *left;

    void
    operator()() const
    {
        if (--*left > 0)
            engine->schedule(1, *this);
    }
};

/** The TrainRunConfig planGoodput gives @p cell of the candidate whose
 *  job is @p job. */
TrainRunConfig
cellConfig(const GoodputPlanInput &in, const TrainJobConfig &job,
           const GoodputSweepPoint &cell)
{
    TrainRunConfig cfg;
    cfg.job = job;
    cfg.total_steps = in.horizon_steps;
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.faults = in.faults;
    cfg.faults.colocation.enabled = cell.straggler_correlation;
    cfg.repairs = in.repairs;
    cfg.storage = in.storage;
    cfg.storage.hier.enabled = cell.hier_global_every > 0;
    if (cfg.storage.hier.enabled) {
        cfg.storage.hier.global_every = cell.hier_global_every;
        cfg.storage.hier.nvme_every =
            std::min(in.storage.hier.nvme_every, cell.hier_global_every);
    }
    cfg.detection = in.detection;
    cfg.restart = in.restart;
    cfg.policy = cell.policy;
    cfg.seed = in.fault_seed;
    return cfg;
}

} // namespace

void
replayStep(Tracer &t, std::int64_t op, const TrainJobConfig &job)
{
    const TrainSim sim(job); // validation and layer assignment only
    const std::int64_t nmb = sim.microBatches();
    const std::int64_t v = sim.virtualStages();
    const ParallelismConfig &par = job.par;
    const std::int64_t tokens_local = job.mbs * job.seq / par.cp;

    std::vector<std::int64_t> pairs(static_cast<std::size_t>(nmb), 0);
    {
        Rng rng(job.seed, rng_streams::kDocMaskSampleStream);
        const CpSharding sharding(job.seq, par.cp);
        for (std::int64_t m = 0; m < nmb; ++m) {
            std::optional<DocMask> mask;
            {
                Tracer::Scope s(&t, "tensor.docmask_build", op);
                mask = job.doc_mask_mean > 0.0
                           ? DocMask::sample(job.seq, job.doc_mask_mean, rng)
                           : DocMask::causal(job.seq);
            }
            t.count("tensor.docmask_tokens", static_cast<double>(job.seq));
            std::int64_t &worst = pairs[static_cast<std::size_t>(m)];
            if (par.cp == 1) {
                Tracer::Scope s(&t, "cp.pairs_query", op);
                worst = mask->totalPairs();
                continue;
            }
            for (std::int64_t r = 0; r < par.cp; ++r) {
                Tracer::Scope s(&t, "cp.pairs_query", op);
                worst = std::max(worst, sharding.pairsOf(r, *mask));
            }
        }
    }

    std::optional<LayerCostModel> lcm;
    LayerCost layer;
    {
        Tracer::Scope s(&t, "model.cost", op);
        lcm.emplace(BlockDims::fromText(job.model), job.cluster.node.gpu,
                    par.tp);
        layer = lcm->selfAttentionLayer(tokens_local, pairs[0], job.seq);
        double sum = lcm->embedding(tokens_local, job.model.vocab).fwd_seconds +
                     lcm->outputHead(tokens_local, job.model.vocab).fwd_seconds;
        const std::int64_t heads_tp = job.model.heads / par.tp;
        const std::int64_t kv_heads_tp =
            std::max<std::int64_t>(1, job.model.kv_heads / par.tp);
        for (const std::int64_t p : pairs) {
            sum += lcm->kernels().attentionTime(p, tokens_local, job.seq,
                                                heads_tp, kv_heads_tp,
                                                job.model.headDim()) +
                   lcm->kernels().attentionBackwardTime(
                       p, tokens_local, job.seq, heads_tp, kv_heads_tp,
                       job.model.headDim());
        }
        const MemoryModel mem(job.model, par.tp, par.dp * par.cp, job.zero,
                              job.memory_optimized);
        const StageAssignment &assignment = sim.assignment();
        for (std::int64_t r = 0; r < par.pp; ++r) {
            sum += mem.rankPeak(assignment.layersOnRank(r),
                                assignment.maxStageLayers(),
                                static_cast<double>(nmb), tokens_local,
                                r == 0, r == par.pp - 1, job.act)
                       .total();
        }
        g_sink = g_sink + sum;
    }

    std::optional<Topology> topo;
    {
        Tracer::Scope s(&t, "net.topology_build", op);
        topo.emplace(job.cluster);
    }
    const CollectiveModel coll(*topo);
    const RankGrid grid(par);
    const auto price = [&](auto &&call) {
        Tracer::Scope s(&t, "net.collective", op);
        g_sink = g_sink + call();
    };
    if (par.tp > 1) {
        price([&] {
            return coll.allGather(grid.tpGroup(0),
                                  lcm->tpCollectiveShardBytes(tokens_local));
        });
    }
    if (par.cp > 1) {
        const std::int64_t kv_bytes =
            tokens_local * 4 *
            std::max<std::int64_t>(1, job.model.kv_heads / par.tp) *
            job.model.headDim();
        const std::vector<std::int64_t> cp_group = grid.cpGroup(0);
        price([&] { return coll.allGather(cp_group, kv_bytes); });
        price([&] { return coll.reduceScatter(cp_group, kv_bytes); });
    }
    if (par.dp * par.cp > 1) {
        const std::vector<std::int64_t> group = grid.dpCpGroup(0);
        const auto shard_bytes = static_cast<std::int64_t>(
            2.0 * job.model.paramsPerLayer() / static_cast<double>(par.tp) /
            static_cast<double>(par.dp * par.cp));
        price([&] { return coll.allGather(group, shard_bytes); });
        price([&] { return coll.reduceScatter(group, shard_bytes); });
    }
    const std::int64_t boundary_bytes =
        2 * tokens_local * job.model.hidden / par.tp;
    for (std::int64_t r = 0; r < par.pp; ++r) {
        price([&] {
            return coll.p2p(grid.rankOf(RankCoord{0, 0, r, 0}),
                            grid.rankOf(RankCoord{0, 0, (r + 1) % par.pp, 0}),
                            boundary_bytes);
        });
    }

    ScheduleParams sp;
    sp.pp = par.pp;
    sp.v = v;
    sp.nmb = nmb;
    sp.nc = job.nc > 0 ? job.nc : std::min(nmb, par.pp);
    std::optional<Schedule> schedule;
    {
        Tracer::Scope s(&t, "pp.build", op);
        schedule.emplace(buildSchedule(job.schedule, sp));
    }
    {
        Tracer::Scope s(&t, "pp.check", op);
        g_sink = g_sink + (checkSchedule(*schedule) ? 1.0 : 0.0);
    }
    Tracer::Scope s(&t, "pp.execute", op);
    const ExecResult exec = executeSchedule(
        *schedule,
        ExecConfig::uniform(layer.fwd_seconds, layer.bwd_seconds, 1e-4));
    t.count("pp.ops_executed", static_cast<double>(exec.records.size()));
}

void
replayRun(Tracer &t, std::int64_t op, const RunInputs &run)
{
    const TrainRunReport &rep = *run.report;
    {
        FaultModel faults(*run.cluster, run.faults, run.fault_seed);
        std::int64_t drawn = 0;
        Tracer::Scope s(&t, "fault.next", op);
        while (!faults.silent()) {
            ++drawn;
            if (timeToSeconds(faults.next().when) > rep.wall_seconds)
                break;
        }
        t.count("fault.events", static_cast<double>(drawn));
    }

    const auto price = [&](RecoveryCostRequest::Kind kind, std::int64_t times,
                           std::int64_t to_dp, NetLevel path) {
        RecoveryCostRequest req;
        req.kind = kind;
        req.to_dp = to_dp;
        req.spare_path = path;
        for (std::int64_t i = 0; i < times; ++i) {
            Tracer::Scope s(&t, "fault.price", op);
            g_sink = g_sink + run.recovery->price(req).totalSeconds();
        }
        t.count("fault.recoveries", static_cast<double>(times));
    };
    using Kind = RecoveryCostRequest::Kind;
    const std::int64_t full_swaps = std::max<std::int64_t>(
        0, rep.spare_swaps - rep.partial_restarts - rep.cross_pod_swaps);
    price(Kind::SpareSwap, full_swaps, 0, NetLevel::Pod);
    price(Kind::SpareSwap, rep.cross_pod_swaps, 0, NetLevel::Spine);
    price(Kind::PartialRestart, rep.partial_restarts, 0, NetLevel::Pod);
    price(Kind::Shrink, rep.dp_shrinks, run.dp - 1, NetLevel::Pod);
    price(Kind::Regrow, rep.dp_regrows, run.dp, NetLevel::Pod);
    price(Kind::MigrateHome, rep.placement_migrations, 0, NetLevel::Pod);

    std::int64_t left = rep.steps_committed + rep.steps_lost +
                        static_cast<std::int64_t>(rep.timeline.size());
    if (left <= 0)
        return;
    Engine engine;
    {
        Tracer::Scope s(&t, "simcore.engine", op);
        engine.scheduleAt(0, StepChain{&engine, &left});
        engine.run();
    }
    t.count("simcore.engine_events",
            static_cast<double>(engine.eventsProcessed()));
}

void
replayPlan(Tracer &t, std::int64_t op, const GoodputPlanInput &in,
           const std::vector<GoodputPlanCandidate> &ranked)
{
    {
        Tracer::Scope s(&t, "plan.enumerate", op);
        g_sink = g_sink + static_cast<double>(enumeratePlans(in.base).size());
    }
    for (const GoodputPlanCandidate &cand : ranked) {
        TrainJobConfig job;
        job.model = in.base.model;
        job.cluster = in.base.cluster;
        job.par = cand.analytic.par;
        job.zero = cand.analytic.zero;
        job.schedule = cand.analytic.schedule;
        job.seq = in.base.seq;
        job.global_batch_tokens = in.base.global_batch_tokens;
        {
            Tracer::Scope s(&t, "sim.step", op);
            g_sink = g_sink + TrainSim(job).run().step_seconds;
        }
        replayStep(t, op, job);
        for (const GoodputSweepPoint &cell : cand.sweep) {
            const TrainRunConfig cfg = cellConfig(in, job, cell);
            const RecoveryCostModel recovery(job.model, job.cluster, job.par,
                                             cfg.storage, cell.policy);
            RunInputs run;
            run.report = &cell.report;
            run.recovery = &recovery;
            run.cluster = &job.cluster;
            run.faults = cfg.faults;
            run.fault_seed = cfg.seed;
            run.dp = job.par.dp;
            replayRun(t, op, run);
        }
        // The per-step loop itself: the winning cell's run once more.
        std::optional<TrainRunSim> sim;
        {
            Tracer::Scope s(&t, "sim.run_build", op);
            sim.emplace(cellConfig(in, job, cand.best()));
        }
        TrainRunReport rep;
        {
            Tracer::Scope s(&t, "sim.run", op);
            rep = sim->run();
        }
        t.count("sim.steps_executed",
                static_cast<double>(rep.steps_committed + rep.steps_lost));
        t.count("sim.steps_committed",
                static_cast<double>(rep.steps_committed));
    }
}

} // namespace perfbench
