#include "outputs.h"

#include <cmath>
#include <sstream>

namespace perfbench {

using namespace llm4d;

namespace {

/** Streams a failure message; converts to the Failure it describes. */
class Fail
{
  public:
    template <class T>
    Fail &
    operator<<(const T &x)
    {
        out_ << x;
        return *this;
    }

    operator Failure() const { return out_.str(); }

  private:
    std::ostringstream out_;
};

bool
finiteNonNegative(double x)
{
    return std::isfinite(x) && x >= 0.0;
}

} // namespace

Failure
checkStep(const TrainStepReport &rep, const TrainJobConfig &job)
{
    if (!std::isfinite(rep.step_seconds) || rep.step_seconds <= 0.0)
        return Fail() << "step_seconds " << rep.step_seconds
                      << " is not finite and positive";
    const double peak = job.cluster.node.gpu.peak_bf16_tflops;
    if (!std::isfinite(rep.tflops_per_gpu) || rep.tflops_per_gpu <= 0.0 ||
        rep.tflops_per_gpu > peak)
        return Fail() << "tflops_per_gpu " << rep.tflops_per_gpu
                      << " outside (0, " << peak << "]";
    if (!(rep.bubble_ratio >= 0.0 && rep.bubble_ratio < 1.0))
        return Fail() << "bubble_ratio " << rep.bubble_ratio
                      << " outside [0, 1)";
    for (const double exposed :
         {rep.exposed_tp_seconds, rep.exposed_cp_seconds,
          rep.exposed_fsdp_seconds, rep.optimizer_seconds}) {
        if (!finiteNonNegative(exposed))
            return Fail() << "exposed time " << exposed
                          << " is not finite and non-negative";
    }
    return std::nullopt;
}

Failure
checkRun(const TrainRunReport &rep, std::int64_t total_steps,
         std::int64_t dp)
{
    if (!rep.completed || rep.steps_committed != total_steps)
        return Fail() << "run incomplete: " << rep.steps_committed << " of "
                      << total_steps << " steps committed";
    if (!std::isfinite(rep.wall_seconds) || rep.wall_seconds <= 0.0)
        return Fail() << "wall_seconds " << rep.wall_seconds
                      << " is not finite and positive";
    double sum = 0.0;
    for (const double bucket :
         {rep.productive_seconds, rep.degraded_seconds,
          rep.checkpoint_seconds, rep.lost_seconds, rep.detection_seconds,
          rep.restart_seconds, rep.spare_swap_seconds, rep.shrink_seconds,
          rep.regrow_seconds, rep.drain_stall_seconds,
          rep.displacement_seconds}) {
        if (!finiteNonNegative(bucket))
            return Fail() << "breakdown bucket " << bucket
                          << " is not finite and non-negative";
        sum += bucket;
    }
    if (std::abs(sum - rep.wall_seconds) > 1e-9 * rep.wall_seconds)
        return Fail() << "breakdown buckets sum to " << sum
                      << " s, wall_seconds is " << rep.wall_seconds;
    if (rep.final_dp != dp - rep.dp_shrinks + rep.dp_regrows)
        return Fail() << "final_dp " << rep.final_dp << " != " << dp
                      << " - " << rep.dp_shrinks << " + " << rep.dp_regrows;
    if (!std::isfinite(rep.goodput_tflops_per_gpu) ||
        !(rep.goodput_tflops_per_gpu <= rep.base_tflops_per_gpu))
        return Fail() << "goodput " << rep.goodput_tflops_per_gpu
                      << " exceeds base " << rep.base_tflops_per_gpu;
    return std::nullopt;
}

Failure
checkPlan(const std::vector<GoodputPlanCandidate> &ranked,
          const GoodputPlanInput &in)
{
    if (ranked.empty())
        return Fail() << "no candidate ranked";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const GoodputPlanCandidate &c = ranked[i];
        if (i > 0 && !(ranked[i - 1].goodput_tflops_per_gpu >=
                       c.goodput_tflops_per_gpu))
            return Fail() << "ranking unsorted at position " << i;
        if (c.sweep.empty() || c.best_point >= c.sweep.size())
            return Fail() << "candidate " << i << " has no best cell";
        const double best = c.best().goodput_tflops_per_gpu;
        if (!(c.goodput_tflops_per_gpu == best))
            return Fail() << "candidate " << i << " ranks by "
                          << c.goodput_tflops_per_gpu
                          << ", its best cell has " << best;
        for (const GoodputSweepPoint &cell : c.sweep) {
            if (!(cell.goodput_tflops_per_gpu <= best))
                return Fail() << "candidate " << i << " best() is not "
                              << "the maximum of its sweep";
            if (Failure f = checkRun(cell.report, in.horizon_steps,
                                     c.analytic.par.dp))
                return Fail() << "candidate " << i << " cell: " << *f;
        }
    }
    return std::nullopt;
}

void
addTo(Digest &d, const TrainStepReport &rep)
{
    for (const double x :
         {rep.step_seconds, rep.tflops_per_gpu, rep.mfu, rep.bubble_ratio,
          rep.exposed_tp_seconds, rep.exposed_cp_seconds,
          rep.exposed_fsdp_seconds, rep.optimizer_seconds})
        d.add(x);
    d.add(rep.bs);
    d.add(rep.nmb);
    d.add(rep.v);
    d.add(rep.pp_rank_memory.size());
    for (const MemoryBreakdown &m : rep.pp_rank_memory) {
        for (const double x :
             {m.weights, m.grads, m.optimizer, m.activations})
            d.add(x);
    }
}

void
addTo(Digest &d, const TrainRunReport &rep)
{
    d.add(rep.completed);
    for (const double x :
         {rep.wall_seconds, rep.ideal_seconds, rep.productive_seconds,
          rep.degraded_seconds, rep.checkpoint_seconds, rep.lost_seconds,
          rep.detection_seconds, rep.restart_seconds,
          rep.spare_swap_seconds, rep.shrink_seconds, rep.regrow_seconds,
          rep.drain_stall_seconds, rep.displacement_seconds,
          rep.goodput_tflops_per_gpu, rep.base_tflops_per_gpu,
          rep.availability})
        d.add(x);
    for (const std::int64_t n :
         {rep.steps_committed, rep.steps_lost, rep.restarts,
          rep.spare_swaps, rep.cross_pod_swaps, rep.placement_migrations,
          rep.dp_shrinks, rep.dp_regrows, rep.hosts_repaired,
          rep.rebalances, rep.partial_restarts, rep.tier_fallbacks,
          rep.final_dp, rep.faults.gpu_fatal, rep.faults.host_crash,
          rep.faults.link_flaps, rep.faults.stragglers})
        d.add(n);
    for (const double x : rep.tier_restore_seconds)
        d.add(x);
    d.add(rep.timeline.size());
    for (const FaultEvent &e : rep.timeline) {
        d.add(e.kind);
        d.add(e.when);
        d.add(e.component);
        d.add(e.severity);
        d.add(e.duration);
    }
}

void
addTo(Digest &d, const std::vector<GoodputPlanCandidate> &ranked)
{
    d.add(ranked.size());
    for (const GoodputPlanCandidate &c : ranked) {
        const PlanCandidate &a = c.analytic;
        for (const std::int64_t n :
             {a.par.tp, a.par.cp, a.par.pp, a.par.dp, a.bs, a.nmb, a.v})
            d.add(n);
        d.add(a.zero);
        d.add(a.schedule);
        d.add(a.feasible);
        d.add(a.reject_reason);
        for (const double x :
             {a.est_step_seconds, a.est_tflops_per_gpu, a.est_memory_gib,
              a.bubble_ratio, a.exposed_comm_fraction})
            d.add(x);
        d.add(c.sweep.size());
        for (const GoodputSweepPoint &cell : c.sweep) {
            const RecoveryPolicy &p = cell.policy;
            d.add(p.mode);
            d.add(p.spare_hosts);
            d.add(p.spare_placement);
            d.add(p.placement_migration);
            d.add(p.spare_activation_seconds);
            d.add(p.swap_reinit_seconds);
            d.add(p.allow_dp_shrink);
            d.add(p.allow_regrow);
            d.add(p.regrow_spares_first);
            d.add(p.checkpoint_mode);
            d.add(p.partial_restart);
            d.add(p.straggler_rebalance);
            d.add(p.rebalance_seconds);
            d.add(p.rebalance_max_residual);
            d.add(cell.hier_global_every);
            d.add(cell.straggler_correlation);
            d.add(cell.checkpoint_interval_steps);
            d.add(cell.goodput_tflops_per_gpu);
            addTo(d, cell.report);
        }
        d.add(c.best_point);
        d.add(c.goodput_tflops_per_gpu);
    }
}

} // namespace perfbench
