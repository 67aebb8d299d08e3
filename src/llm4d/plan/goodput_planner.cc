#include "llm4d/plan/goodput_planner.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <tuple>

#include "llm4d/simcore/common.h"

namespace llm4d {

namespace {

/** Total order on analytic candidates: fastest first, then a canonical
 *  par/zero/schedule tie-break, so stage-1 survivor selection and the
 *  final ranking cannot depend on axis-option enumeration order. */
auto
canonicalKey(const PlanCandidate &c)
{
    return std::make_tuple(c.est_step_seconds, c.par.tp, c.par.cp,
                           c.par.pp, static_cast<int>(c.zero),
                           static_cast<int>(c.schedule));
}

bool
samePlan(const PlanCandidate &a, const PlanCandidate &b)
{
    return a.par == b.par && a.zero == b.zero &&
           a.schedule == b.schedule;
}

/** TrainRunConfig of one sweep cell of @p cand. A cell's
 *  hier_global_every > 0 turns the hierarchical tiers on at that global
 *  cadence; 0 forces the global-only baseline regardless of the input's
 *  storage.hier.enabled. */
TrainRunConfig
cellConfig(const GoodputPlanInput &in, const PlanCandidate &cand,
           const GoodputSweepPoint &cell)
{
    TrainRunConfig cfg;
    cfg.job.model = in.base.model;
    cfg.job.cluster = in.base.cluster;
    cfg.job.par = cand.par;
    cfg.job.zero = cand.zero;
    cfg.job.schedule = cand.schedule;
    cfg.job.seq = in.base.seq;
    cfg.job.global_batch_tokens = in.base.global_batch_tokens;
    cfg.total_steps = in.horizon_steps;
    // Young-Daly auto mode: each cell gets the interval matched to its
    // checkpoint mode (async contracts it to the snapshot-cost optimum).
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    cfg.faults = in.faults;
    cfg.faults.colocation.enabled = cell.straggler_correlation;
    cfg.repairs = in.repairs;
    cfg.storage = in.storage;
    const std::int64_t hier_n = cell.hier_global_every;
    cfg.storage.hier.enabled = hier_n > 0;
    if (hier_n > 0) {
        cfg.storage.hier.global_every = hier_n;
        // The NVMe cadence cannot be coarser than the global one (an
        // NVMe write rides along at every global boundary anyway).
        cfg.storage.hier.nvme_every =
            std::min(in.storage.hier.nvme_every, hier_n);
    }
    cfg.detection = in.detection;
    cfg.restart = in.restart;
    cfg.policy = cell.policy;
    cfg.seed = in.fault_seed;
    return cfg;
}

/**
 * Whether a cell of @p par is one the models would refuse to build or
 * that would only duplicate another cell:
 *  1. regrow or partial restart needs an elastic (WarmSpare) cell: a
 *     pool to refill or a shrink to undo, a live swap or shrink path to
 *     restart on;
 *  2. a non-central placement needs spares to place;
 *  3. partial restart needs the HBM peer tier;
 *  4. the tiers need a DP peer to mirror to (dp * cp >= 2);
 *  5. correlation needs an enabled straggler class to correlate.
 */
bool
skipCell(const GoodputPlanInput &in, const ParallelismConfig &par,
         const GoodputSweepPoint &cell)
{
    const RecoveryPolicy &p = cell.policy;
    const bool elastic = p.mode == RecoveryMode::WarmSpare;
    const bool tiered = cell.hier_global_every > 0;
    return ((p.allow_regrow || p.partial_restart) && !elastic) ||
           (p.spare_placement != SparePlacementPolicy::CentralPool &&
            p.spare_hosts == 0) ||
           (p.partial_restart && !tiered) ||
           (tiered && par.dp * par.cp < 2) ||
           (cell.straggler_correlation &&
            in.base.cluster.node.gpu.straggler_mtbf_hours <= 0.0);
}

} // namespace

std::vector<GoodputSweepPoint>
GoodputPlanInput::sweepCells(const ParallelismConfig &par) const
{
    validate();
    // An odometer over the axes, outermost first: the last axis turns
    // fastest. Adding an axis adds one size here and one assignment
    // below.
    using Odometer = std::array<std::size_t, 8>;
    const Odometer sizes = {
        spare_pool_options.size(),      checkpoint_mode_options.size(),
        dp_shrink_options.size(),       regrow_options.size(),
        partial_restart_options.size(), placement_options.size(),
        hier_global_every_options.size(),
        straggler_correlation_options.size()};
    std::vector<GoodputSweepPoint> out;
    for (Odometer at{};;) {
        GoodputSweepPoint cell;
        RecoveryPolicy &p = cell.policy;
        p.spare_hosts = spare_pool_options[at[0]];
        p.checkpoint_mode = checkpoint_mode_options[at[1]];
        p.allow_dp_shrink = dp_shrink_options[at[2]];
        p.allow_regrow = regrow_options[at[3]];
        p.partial_restart = partial_restart_options[at[4]];
        p.spare_placement = placement_options[at[5]];
        cell.hier_global_every = hier_global_every_options[at[6]];
        cell.straggler_correlation = straggler_correlation_options[at[7]];
        // WarmSpare only when the elastic paths have something to do;
        // otherwise the plain full-restart baseline, which never swaps,
        // so migration rides only on elastic cells.
        const bool elastic = p.spare_hosts > 0 || p.allow_dp_shrink;
        p.mode = elastic ? RecoveryMode::WarmSpare : RecoveryMode::FullRestart;
        p.placement_migration = placement_migration && elastic;
        p.straggler_rebalance = straggler_rebalance;
        if (!skipCell(*this, par, cell))
            out.push_back(std::move(cell));
        std::size_t axis = sizes.size();
        while (axis > 0 && ++at[axis - 1] == sizes[axis - 1])
            at[--axis] = 0;
        if (axis == 0)
            return out;
    }
}

void
GoodputPlanInput::validate() const
{
    LLM4D_CHECK(top_k > 0, "stage 2 needs at least one survivor");
    LLM4D_CHECK(horizon_steps > 0,
                "simulation horizon must be positive");
    LLM4D_CHECK(!spare_pool_options.empty() &&
                    !checkpoint_mode_options.empty() &&
                    !dp_shrink_options.empty() &&
                    !regrow_options.empty() &&
                    !hier_global_every_options.empty() &&
                    !partial_restart_options.empty() &&
                    !straggler_correlation_options.empty() &&
                    !placement_options.empty(),
                "every recovery-policy sweep axis needs at least one "
                "point");
    for (const std::int64_t spares : spare_pool_options)
        LLM4D_CHECK(spares >= 0, "spare pool sizes cannot be negative");
    for (const std::int64_t n : hier_global_every_options)
        LLM4D_CHECK(n >= 0,
                    "hierarchical global cadence must be >= 0 (0 = "
                    "global-only)");
    LLM4D_CHECK(base.cluster.fatalFailuresPerHour() > 0.0,
                "goodput planning needs an enabled fatal failure class "
                "(Young-Daly auto intervals are undefined without one)");
    faults.validate();
    repairs.validate();
    storage.validate();
}

std::vector<GoodputPlanCandidate>
planGoodput(const GoodputPlanInput &in)
{
    in.validate();

    // ---- Stage 1: analytic pruning to the top-K survivors. ----
    const std::vector<PlanCandidate> plans = enumeratePlans(in.base);
    std::vector<PlanCandidate> feasible;
    std::copy_if(plans.begin(), plans.end(), std::back_inserter(feasible),
                 [](const PlanCandidate &c) { return c.feasible; });
    std::sort(feasible.begin(), feasible.end(),
              [](const PlanCandidate &a, const PlanCandidate &b) {
                  return canonicalKey(a) < canonicalKey(b);
              });
    if (feasible.size() > static_cast<std::size_t>(in.top_k))
        feasible.resize(static_cast<std::size_t>(in.top_k));
    // The analytic planner's preferred pick always competes, even when
    // the Section-5.1 near-tie preference rules moved it past the raw
    // top-K cutoff — stage 2 exists to judge exactly that pick.
    if (const std::optional<PlanCandidate> preferred =
            preferredPlan(plans)) {
        const bool present =
            std::any_of(feasible.begin(), feasible.end(),
                        [&](const PlanCandidate &c) {
                            return samePlan(c, *preferred);
                        });
        if (!present)
            feasible.push_back(*preferred);
    }

    // ---- Stage 2: policy sweep under common random numbers. ----
    // The fault timeline is a pure function of (cluster, tuning, seed),
    // all identical across cells, so every candidate and policy faces
    // the exact same failures and the ranking isolates what each plan
    // does about them.
    std::vector<GoodputPlanCandidate> out;
    out.reserve(feasible.size());
    for (const PlanCandidate &cand : feasible) {
        GoodputPlanCandidate scored;
        scored.analytic = cand;
        scored.sweep = in.sweepCells(cand.par);
        for (GoodputSweepPoint &pt : scored.sweep) {
            const TrainRunSim sim(cellConfig(in, cand, pt));
            pt.checkpoint_interval_steps = sim.checkpointIntervalSteps();
            pt.report = sim.run();
            // Idle spares are provisioned capacity: they park whole
            // hosts next to the job, so the per-GPU goodput the cluster
            // owner sees is diluted by the pool.
            const double world = static_cast<double>(cand.par.worldSize());
            const double provisioned =
                world + static_cast<double>(
                            pt.policy.spare_hosts *
                            in.base.cluster.node.gpus_per_node);
            pt.goodput_tflops_per_gpu =
                pt.report.goodput_tflops_per_gpu * world / provisioned;
        }
        // A candidate with no simulable cell (e.g. dp*cp == 1 under a
        // tiers-only axis) cannot be ranked — drop it rather than
        // dereference an empty sweep.
        if (scored.sweep.empty())
            continue;
        for (std::size_t i = 0; i < scored.sweep.size(); ++i) {
            if (scored.sweep[i].goodput_tflops_per_gpu >
                scored.sweep[scored.best_point].goodput_tflops_per_gpu)
                scored.best_point = i;
        }
        scored.goodput_tflops_per_gpu =
            scored.best().goodput_tflops_per_gpu;
        out.push_back(std::move(scored));
    }

    std::sort(out.begin(), out.end(),
              [](const GoodputPlanCandidate &a,
                 const GoodputPlanCandidate &b) {
                  if (a.goodput_tflops_per_gpu !=
                      b.goodput_tflops_per_gpu)
                      return a.goodput_tflops_per_gpu >
                             b.goodput_tflops_per_gpu;
                  return canonicalKey(a.analytic) <
                         canonicalKey(b.analytic);
              });
    return out;
}

std::optional<GoodputPlanCandidate>
tryBestGoodputPlan(const GoodputPlanInput &in)
{
    std::vector<GoodputPlanCandidate> ranked = planGoodput(in);
    if (ranked.empty())
        return std::nullopt;
    return std::move(ranked.front());
}

GoodputPlanCandidate
bestGoodputPlan(const GoodputPlanInput &in)
{
    std::optional<GoodputPlanCandidate> best = tryBestGoodputPlan(in);
    LLM4D_CHECK(best.has_value(),
                "no feasible parallelism configuration for this input");
    return *std::move(best);
}

} // namespace llm4d
