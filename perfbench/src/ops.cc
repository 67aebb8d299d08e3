#include "ops.h"

#include <optional>

#include "probes.h"

namespace perfbench {

using namespace llm4d;

namespace {

OpResult
timed(const TrainJobConfig &job, Tracer *t, std::int64_t id)
{
    OpResult r;
    TrainStepReport rep;
    {
        Tracer::Scope op(t, "op", id);
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s(t, "sim.step", id);
            rep = TrainSim(job).run();
        }
        r.host_seconds = secondsBetween(t0, Clock::now());
    }
    r.sim_steps = 1;
    {
        Tracer::Scope s(t, "bench.check", id);
        r.failure = checkStep(rep, job);
        Digest d;
        addTo(d, rep);
        r.digest = d.value();
    }
    if (t != nullptr)
        replayStep(*t, id, job);
    return r;
}

OpResult
timed(const TrainRunConfig &cfg, Tracer *t, std::int64_t id)
{
    OpResult r;
    std::optional<TrainRunSim> sim;
    TrainRunReport rep;
    {
        Tracer::Scope op(t, "op", id);
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s(t, "sim.run_build", id);
            sim.emplace(cfg);
        }
        {
            Tracer::Scope s(t, "sim.run", id);
            rep = sim->run();
        }
        r.host_seconds = secondsBetween(t0, Clock::now());
    }
    r.sim_steps = rep.steps_committed + rep.steps_lost;
    {
        Tracer::Scope s(t, "bench.check", id);
        r.failure = checkRun(rep, cfg.total_steps, cfg.job.par.dp);
        Digest d;
        addTo(d, rep);
        r.digest = d.value();
    }
    if (t == nullptr)
        return r;
    t->count("sim.steps_executed", static_cast<double>(r.sim_steps));
    t->count("sim.steps_committed",
             static_cast<double>(rep.steps_committed));
    RunInputs run;
    run.report = &rep;
    run.recovery = &sim->recovery();
    run.cluster = &cfg.job.cluster;
    run.faults = cfg.faults;
    run.fault_seed = cfg.seed;
    run.dp = cfg.job.par.dp;
    replayRun(*t, id, run);
    return r;
}

OpResult
timed(const GoodputPlanInput &in, Tracer *t, std::int64_t id)
{
    OpResult r;
    std::vector<GoodputPlanCandidate> ranked;
    {
        Tracer::Scope op(t, "op", id);
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s(t, "plan.goodput", id);
            ranked = planGoodput(in);
        }
        r.host_seconds = secondsBetween(t0, Clock::now());
    }
    std::int64_t cells = 0;
    for (const GoodputPlanCandidate &c : ranked) {
        cells += static_cast<std::int64_t>(c.sweep.size());
        for (const GoodputSweepPoint &cell : c.sweep)
            r.sim_steps += cell.report.steps_committed + cell.report.steps_lost;
    }
    {
        Tracer::Scope s(t, "bench.check", id);
        r.failure = checkPlan(ranked, in);
        Digest d;
        addTo(d, ranked);
        r.digest = d.value();
    }
    if (t == nullptr)
        return r;
    t->count("plan.candidates", static_cast<double>(ranked.size()));
    t->count("plan.cells", static_cast<double>(cells));
    replayPlan(*t, id, in, ranked);
    return r;
}

} // namespace

OpResult
runOp(const OpInput &op, Tracer *tracer, std::int64_t id)
{
    return std::visit(
        [&](const auto &input) { return timed(input, tracer, id); }, op);
}

} // namespace perfbench
