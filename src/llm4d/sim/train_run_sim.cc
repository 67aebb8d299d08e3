#include "llm4d/sim/train_run_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>

#include "llm4d/net/flow_sim.h"
#include "llm4d/net/topology.h"
#include "llm4d/simcore/common.h"
#include "llm4d/simcore/engine.h"

namespace llm4d {

#if LLM4D_AUDIT_ENABLED
namespace audit_testing {
double trainrun_lost_skew_seconds = 0.0;
} // namespace audit_testing
#endif

namespace {

constexpr double kSecondsPerHour = 3600.0;

/**
 * One stage of the run's work ledger: completed steps with their
 * base-speed and degradation seconds. Stages hand work on only through
 * absorb(), so a move can never leave a stage half-updated.
 */
struct Work
{
    std::int64_t steps = 0;
    double base_s = 0.0;
    double extra_s = 0.0;

    /** Add @p from into this stage, then zero @p from. */
    void absorb(Work &from)
    {
        steps += from.steps;
        base_s += from.base_s;
        extra_s += from.extra_s;
        from = Work{};
    }

    bool operator==(const Work &) const = default;
};

TrainRunConfig
validated(TrainRunConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

void
TrainRunConfig::validate() const
{
    LLM4D_CHECK(total_steps > 0, "run needs at least one step");
    if (checkpoint_interval_auto) {
        LLM4D_CHECK(checkpoint_interval_steps == 0,
                    "explicit checkpoint_interval_steps of "
                        << checkpoint_interval_steps
                        << " conflicts with checkpoint_interval_auto; "
                           "set it to 0 and read "
                           "TrainRunSim::checkpointIntervalSteps()");
        LLM4D_CHECK(job.cluster.fatalFailuresPerHour() > 0.0,
                    "Young-Daly auto interval needs an enabled fatal "
                    "failure class");
    } else {
        LLM4D_CHECK(checkpoint_interval_steps > 0,
                    "checkpoint interval must be positive");
    }
    LLM4D_CHECK(restart.reinit_seconds >= 0.0 &&
                    restart.warmup_steps >= 0 &&
                    restart.warmup_slowdown >= 1.0,
                "invalid restart config");
    LLM4D_CHECK(detection.fast_fail_seconds >= 0.0 &&
                    detection.timeout_seconds >= 0.0 &&
                    detection.straggler_analysis_seconds >= 0.0,
                "detection latencies must be non-negative");
    LLM4D_CHECK(max_wall_days > 0.0, "max wall-clock must be positive");
    faults.validate();
    repairs.validate();
    storage.validate();
    policy.validate(job.cluster);
    LLM4D_CHECK(!policy.partial_restart || storage.hier.enabled,
                "partial restart requires hierarchical checkpoint tiers "
                "(storage.hier.enabled)");
}

StragglerOnsetMerge
mergeStragglerOnset(double tracked_speed,
                    std::int64_t tracked_steps_to_detect,
                    bool tracked_mitigated, double onset_severity,
                    std::int64_t onset_steps_to_detect)
{
    StragglerOnsetMerge merge;
    if (onset_severity >= tracked_speed) {
        // No-worse repeat: the detector keeps watching unperturbed.
        merge.speed = tracked_speed;
        merge.steps_to_detect = tracked_steps_to_detect;
        return merge;
    }
    merge.speed = onset_severity;
    if (tracked_mitigated) {
        // The rebalance was sized for the old speed; the worse onset
        // invalidates it, so mitigation restarts from scratch.
        merge.steps_to_detect = onset_steps_to_detect;
        merge.reset_mitigation = true;
    } else {
        // Keep the accumulated detection evidence while adopting the
        // worse speed. A repeat onset must never push localization
        // further out — the pre-fix code overwrote the tracker and
        // reset the detection clock here.
        merge.steps_to_detect =
            std::min(tracked_steps_to_detect, onset_steps_to_detect);
    }
    return merge;
}

TrainRunSim::TrainRunSim(TrainRunConfig cfg)
    : cfg_(validated(std::move(cfg))),
      base_(TrainSim(cfg_.job).run()),
      recovery_(cfg_.job.model, cfg_.job.cluster, cfg_.job.par,
                cfg_.storage, cfg_.policy)
{
}

double
TrainRunSim::mtbfSeconds() const
{
    return kSecondsPerHour / cfg_.job.cluster.failuresPerHour();
}

double
TrainRunSim::blockingSaveSeconds() const
{
    // With hierarchical tiers every checkpoint boundary blocks only for
    // the HBM peer mirror (the NVMe/global persists ride the configured
    // cadences), so that is the Young–Daly C.
    const CheckpointModel &ckpt = checkpoint();
    if (cfg_.storage.hier.enabled)
        return ckpt.hbmMirrorSeconds();
    return cfg_.policy.checkpoint_mode == CheckpointMode::Async
               ? ckpt.snapshotSeconds()
               : ckpt.saveSeconds();
}

std::int64_t
TrainRunSim::youngDalyIntervalSteps() const
{
    // Young–Daly counts only work-losing failures; stragglers and flaps
    // degrade throughput but lose no checkpointable progress. Under
    // async checkpointing only the snapshot blocks the step, so the
    // relevant C is blockingSaveSeconds(), not the filesystem drain.
    const double fatal_rate = cfg_.job.cluster.fatalFailuresPerHour();
    LLM4D_CHECK(fatal_rate > 0.0,
                "Young-Daly undefined without fatal failure classes");
    const double yd_seconds = youngDalyIntervalSeconds(
        kSecondsPerHour / fatal_rate, blockingSaveSeconds());
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(yd_seconds / base_.step_seconds)));
}

double
TrainRunSim::degradedStepSeconds(
    const std::vector<std::pair<std::int64_t, double>> &active) const
{
    LLM4D_ASSERT(!active.empty(),
                 "joint straggler pricing needs at least one straggler");
    // TrainSim's cost table only samples the representative rank of each
    // PP coordinate, so map every straggler onto the representative of
    // its pipeline stage; synchronized training then propagates the
    // compounded slowdown to the whole step. Two stragglers on the same
    // stage collapse to the slowest — the stage already waits for its
    // worst rank, so their slowdowns do not stack.
    const RankGrid grid(cfg_.job.par);
    std::map<std::int64_t, double> by_rep;
    for (const auto &[rank, speed] : active) {
        const std::int64_t pp_coord = grid.coordOf(rank).pp;
        const std::int64_t rep = grid.rankOf(RankCoord{0, 0, pp_coord, 0});
        const auto it = by_rep.find(rep);
        if (it == by_rep.end() || speed < it->second)
            by_rep[rep] = speed;
    }
    const std::vector<std::pair<std::int64_t, double>> key(by_rep.begin(),
                                                           by_rep.end());
    const auto it = degraded_cache_.find(key);
    if (it != degraded_cache_.end())
        return it->second;
    TrainJobConfig degraded = cfg_.job;
    for (const auto &[rep, speed] : key)
        degraded.perf.injectStraggler(rep, speed);
    const double seconds = TrainSim(degraded).run().step_seconds;
    degraded_cache_[key] = std::max(seconds, base_.step_seconds);
    return degraded_cache_[key];
}

bool
TrainRunSim::canShrinkTo(std::int64_t dp) const
{
    if (dp < 1)
        return false;
    // The HBM peer mirror needs a surviving DP peer at the shrunk
    // layout, or the hierarchical checkpoint model is unbuildable.
    if (cfg_.storage.hier.enabled && dp * cfg_.job.par.cp < 2)
        return false;
    const std::int64_t world =
        cfg_.job.par.worldSize() / cfg_.job.par.dp * dp;
    if (world % cfg_.job.cluster.node.gpus_per_node != 0)
        return false;
    // The surviving replicas must still split the global batch into
    // whole micro-batches (TrainSim aborts otherwise, so pre-check).
    if (cfg_.job.global_batch_tokens % cfg_.job.seq != 0)
        return false;
    const std::int64_t gbs_seqs =
        cfg_.job.global_batch_tokens / cfg_.job.seq;
    if (gbs_seqs % dp != 0)
        return false;
    if ((gbs_seqs / dp) % cfg_.job.mbs != 0)
        return false;
    // Schedule-feasibility envelope: the flexible PP schedule deadlocks
    // past one micro-batch per pipeline stage in flight, so survivors
    // cannot absorb more micro-batches than the pipeline is deep.
    const std::int64_t shrunk_nmb = gbs_seqs / dp / cfg_.job.mbs;
    return shrunk_nmb <= std::max(base_.nmb, cfg_.job.par.pp);
}

const TrainStepReport &
TrainRunSim::stepReportAtDp(std::int64_t dp) const
{
    if (dp == cfg_.job.par.dp)
        return base_;
    const auto it = shrunk_report_cache_.find(dp);
    if (it != shrunk_report_cache_.end())
        return it->second;
    // Same global batch over fewer replicas: each survivor runs more
    // micro-batches, so the fault-free step gets strictly slower.
    TrainJobConfig job = cfg_.job;
    job.par = RecoveryCostModel::shrunkPar(job.par, dp);
    job.cluster = RecoveryCostModel::shrunkCluster(job.cluster, job.par);
    return shrunk_report_cache_.emplace(dp, TrainSim(job).run())
        .first->second;
}

double
TrainRunSim::nicSlowdown(double capacity) const
{
    // Share of the step a NIC slowdown can stretch: traffic that crosses
    // the NICs and sits on the critical path (FSDP + CP exposure). TP is
    // NVLink-local and immune. Floor at 2% for PP P2P and infra traffic
    // that the step report does not itemize.
    const double nic_share = std::clamp(
        (base_.exposed_fsdp_seconds + base_.exposed_cp_seconds) /
            base_.step_seconds,
        0.02, 0.9);
    // Transfer-level slowdown at the reduced capacity, measured through
    // the flow simulator's capacity-reduction machinery.
    const double nic_bps = cfg_.job.cluster.node.gpu.nic_bw_gbps * 1e9;
    const double xfer_slowdown = flapSlowdownFactor(
        nic_bps, nic_bps /* a 1-second reference transfer */, capacity, 0,
        secondsToTime(1e6));
    return 1.0 + (xfer_slowdown - 1.0) * nic_share;
}

double
TrainRunSim::rebalanceHeadroomMicrobatches(std::int64_t straggler_rank,
                                           std::int64_t dp) const
{
    // The pp coordinate comes from the original grid (the straggler is
    // named in pre-shrink rank numbering), but peak memory and the
    // per-micro-batch footprint are taken at the current DP degree:
    // after a shrink each survivor already holds more micro-batches and
    // a larger optimizer shard, so the pre-shrink headroom overstates
    // what the peers can absorb.
    const RankGrid grid(cfg_.job.par);
    const std::int64_t pp_coord = grid.coordOf(straggler_rank).pp;
    const TrainStepReport &step = stepReportAtDp(dp);
    const auto &mem =
        step.pp_rank_memory[static_cast<std::size_t>(pp_coord)];
    const double headroom =
        mem.headroomBytes(cfg_.job.cluster.node.gpu.hbm_capacity_gib);
    if (headroom <= 0.0)
        return 0.0;
    // Bytes of one extra in-flight stage micro-batch on the peers that
    // would absorb the shifted work (same PP coordinate as the
    // straggler, so the same activation footprint).
    const MemoryModel mm(cfg_.job.model, cfg_.job.par.tp,
                         dp * cfg_.job.par.cp, cfg_.job.zero,
                         cfg_.job.memory_optimized);
    const std::int64_t layers_per_rank =
        ceilDiv(cfg_.job.model.num_layers, cfg_.job.par.pp);
    const std::int64_t stage_layers =
        ceilDiv(layers_per_rank, std::max<std::int64_t>(1, step.v));
    const std::int64_t tokens =
        cfg_.job.mbs * cfg_.job.seq / cfg_.job.par.cp;
    const double per_microbatch = mm.activationBytes(
        tokens, stage_layers, false, false, cfg_.job.act);
    return per_microbatch > 0.0 ? headroom / per_microbatch : 0.0;
}

std::int64_t
TrainRunSim::checkpointIntervalSteps() const
{
    return cfg_.checkpoint_interval_auto ? youngDalyIntervalSteps()
                                         : cfg_.checkpoint_interval_steps;
}

TrainRunReport
TrainRunSim::run() const
{
    return runWithInterval(checkpointIntervalSteps());
}

TrainRunReport
TrainRunSim::runWithInterval(std::int64_t interval_steps) const
{
    LLM4D_CHECK(interval_steps > 0, "checkpoint interval must be positive");
    const RecoveryPolicy &pol = cfg_.policy;
    const bool async = pol.checkpoint_mode == CheckpointMode::Async;
    const HierarchicalCheckpointSpec &hier = cfg_.storage.hier;
    const bool tiered = hier.enabled;
    const double base_step_s = base_.step_seconds;
    const Time wall_limit =
        secondsToTime(cfg_.max_wall_days * 24.0 * kSecondsPerHour);

    FaultModel faults(cfg_.job.cluster, cfg_.faults, cfg_.seed);
    const bool has_faults = !faults.silent();
    // Every fatal fault is submitted to the repair shop whether or not
    // the policy consumes repairs: the shop draws from its own streams
    // at submit time, so the repair timeline is policy-invariant
    // (common random numbers) and allow_regrow=false runs stay
    // bit-identical to runs with no repair shop at all.
    RepairModel repair_shop(cfg_.job.cluster, cfg_.repairs, cfg_.seed);
    const Topology topo(cfg_.job.cluster);

    Engine eng;
    TrainRunReport rep;
    rep.base_tflops_per_gpu = base_.tflops_per_gpu;
    rep.ideal_seconds =
        static_cast<double>(cfg_.total_steps) * base_step_s;

    struct ActiveFlap
    {
        Time until = 0;
        double multiplier = 1.0;
    };
    struct ActiveStraggler
    {
        double speed = 1.0;
        std::int64_t steps_to_detect = 0;
        bool mitigated = false;    ///< micro-batches rebalanced away
        double residual = 1.0;     ///< post-rebalance step multiplier
    };
    /** What holds the run's foreground right now. */
    enum class Busy
    {
        Idle,          ///< nothing; the next step may start
        Work,          ///< a step or checkpoint write is in flight
        Outage,        ///< a recovery or pause is running
        SnapshotStall, ///< a snapshot waits for the single host buffer
        FinalStall,    ///< a finish or eviction waits for durability
        Stopped,       ///< finished (rep.completed) or truncated
    };
    enum class RecoveryPath
    {
        Swap,    ///< claim a warm spare
        Shrink,  ///< drop one DP replica
        Restart, ///< stop-the-world restart
    };

    // ---- Run state, mutated by the event handlers below. ----
    // The work ledger, oldest -> newest: committed | pending | nv |
    // local | tentative. Work only moves forward (Work::absorb) or is
    // rolled back; nv and local stay empty unless tiered.
    std::int64_t committed = 0; ///< steps durably in a checkpoint
    Work pending;   ///< snapshotted, drain in flight
    Work nv;        ///< covered by the latest NVMe persist
    Work local;     ///< covered only by the latest HBM peer mirror
    Work tentative; ///< completed, not yet covered by any checkpoint
    std::int64_t ckpt_boundary = 0; ///< cadence counter, never rolled back
    std::int64_t dp_now = cfg_.job.par.dp;  ///< shrinks are persistent
    // The one spare ledger. Every swap claims from it and every refill
    // returns to it; only a placement-aware policy prices the claim's
    // location.
    SparePool spare_pool(cfg_.job.cluster, pol.spare_placement,
                         pol.spare_hosts);
    const bool placement_aware = pol.placementAware();
    std::int64_t displaced = 0; ///< ranks running on cross-pod spares
    /** Step multiplier while any rank is displaced; priced on first use. */
    std::optional<double> displaced_slowdown;
    std::int64_t warmup_left = 0;
    Busy busy = Busy::Idle;
    Time busy_since = 0;    ///< when the current foreground state began
    EventId busy_event = 0; ///< end of the in-flight Work or Outage
    Time stopped_at = 0;    ///< clock when the run ended (either way)
    Time resume_at = 0;     ///< when the in-flight outage ends
    double outage_rest_s = 0.0;        ///< recovery part of the outage
    double *outage_bucket = &rep.restart_seconds; ///< where it went
    bool finishing = false; ///< all steps done; final durability pending
    bool drain_active = false;
    EventId drain_event = 0;
    std::int64_t evict_rank = -1; ///< straggler awaiting durable evict
    // Ordered maps on purpose: both are iterated by event handlers, and
    // deterministic (rank-ordered) iteration is part of the engine's
    // bit-reproducibility contract — the nondeterminism lint rejects
    // unordered-container iteration in event-scheduling files.
    std::map<std::int64_t, ActiveFlap> flaps;           // by NIC/rank
    std::map<std::int64_t, ActiveStraggler> stragglers; // by rank

    // Forward declarations so handlers can schedule each other.
    std::function<void()> schedule_step;
    std::function<void()> on_drain_done;

    const auto current_step_seconds = [&]() {
        // Any displaced rank stretches its DP group's collectives over
        // the oversubscribed spine; synchronized training makes the
        // whole step wait for it.
        double placement = 1.0;
        if (displaced > 0) {
            if (!displaced_slowdown)
                displaced_slowdown = nicSlowdown(
                    1.0 / cfg_.job.cluster.spine_oversubscription);
            placement = *displaced_slowdown;
        }
        const double eff = std::max(
            stepReportAtDp(dp_now).step_seconds * placement, base_step_s);
        double s = eff;
        double worst_residual = 1.0;
        // Price the whole unmitigated set through one TrainSim rerun:
        // concurrent stragglers on distinct PP stages compound, which a
        // max over single-straggler runs undercounts.
        std::vector<std::pair<std::int64_t, double>> active;
        for (const auto &[rank, st] : stragglers) {
            if (st.mitigated)
                worst_residual = std::max(worst_residual, st.residual);
            else
                active.emplace_back(rank, st.speed);
        }
        if (!active.empty())
            s = std::max(s, eff * degradedStepSeconds(active) /
                                base_step_s);
        s = std::max(s, eff * worst_residual);
        // A flapping NIC runs at its worst active capacity.
        double worst_capacity = 1.0;
        for (const auto &[rank, flap] : flaps) {
            if (flap.until > eng.now())
                worst_capacity = std::min(worst_capacity, flap.multiplier);
        }
        if (worst_capacity < 1.0)
            s *= nicSlowdown(worst_capacity);
        if (warmup_left > 0)
            s *= cfg_.restart.warmup_slowdown;
        if (drain_active)
            s *= cfg_.storage.async.drain_step_slowdown;
        return s;
    };

    const auto steps_done = [&]() {
        return committed + pending.steps + nv.steps + local.steps +
               tentative.steps;
    };

    /** Leave Idle for @p next. Every foreground activity starts here,
     *  so the states stay exclusive. */
    const auto enter = [&](Busy next) {
        LLM4D_AUDIT_CHECK("sim", busy == Busy::Idle,
                          "foreground state " << static_cast<int>(next)
                              << " entered while in state "
                              << static_cast<int>(busy));
        busy = next;
        busy_since = eng.now();
    };

    /** Run a step or a checkpoint write of @p seconds; @p done runs when
     *  it completes, unless interrupt() cancels it first. */
    const auto start_work = [&](double seconds, auto done) {
        enter(Busy::Work);
        busy_event = eng.schedule(secondsToTime(seconds), [&, done]() {
            busy = Busy::Idle;
            done();
        });
    };

    /** Fold the local-tier coverage forward: tentative -> local -> nv.
     *  Each hop is one IEEE addition per field, so nv ends up holding
     *  (tentative + local) + nv bit for bit. */
    const auto fold_local = [&]() {
        local.absorb(tentative);
        nv.absorb(local);
    };

    /** @p work is now durable: count it as committed progress. */
    const auto make_durable = [&](Work &work) {
        committed += work.steps;
        rep.productive_seconds += work.base_s;
        rep.degraded_seconds += work.extra_s;
        work = Work{};
    };

    /**
     * Discard the work @p tier's restore point does not cover. Global
     * destroys everything non-durable, including a snapshot whose drain
     * is still writing. The local tiers keep more: the drain (a
     * host-side checkpoint daemon writing from host DRAM) keeps running
     * across GPU-level faults and even process restarts, so pending and
     * NVMe-covered work survive; HbmPeer additionally keeps the
     * HBM-mirror-covered steps (survivor processes stay live), losing
     * only the tentative tail. Each tier keeps its own summation order.
     */
    const auto rollback = [&](CheckpointTier tier) {
#if LLM4D_AUDIT_ENABLED
        // Rollback targets non-durable work only: committed steps are
        // untouchable, the lost-step ledger must grow by exactly the
        // stages being discarded, and the stages the tier's restore
        // point covers must come through untouched.
        const std::int64_t audit_committed_before = committed;
        const Work audit_pending = pending;
        const Work audit_nv = nv;
        const Work audit_local = local;
        std::int64_t audit_expected_lost = rep.steps_lost + tentative.steps;
        if (tier != CheckpointTier::HbmPeer)
            audit_expected_lost += local.steps;
        if (tier == CheckpointTier::Global)
            audit_expected_lost += nv.steps + pending.steps;
#endif
        if (tier == CheckpointTier::Global) {
            if (drain_active) {
                eng.cancel(drain_event);
                drain_active = false;
            }
            rep.lost_seconds += tentative.base_s + tentative.extra_s +
                                local.base_s + local.extra_s + nv.base_s +
                                nv.extra_s + pending.base_s +
                                pending.extra_s;
            rep.steps_lost +=
                tentative.steps + local.steps + nv.steps + pending.steps;
            local = Work{};
            nv = Work{};
            pending = Work{};
        } else {
            double lost_s = tentative.base_s + tentative.extra_s;
            std::int64_t lost = tentative.steps;
            if (tier == CheckpointTier::HostLocal) {
                // HBM-only coverage dies with the restarted processes.
                lost_s += local.base_s + local.extra_s;
                lost += local.steps;
                local = Work{};
            }
            rep.lost_seconds += lost_s;
            rep.steps_lost += lost;
        }
        tentative = Work{};
        // A pending finish/eviction referred to steps just rolled back;
        // the re-executed steps must re-trigger it, or a later routine
        // snapshot would terminate the run early.
        finishing = false;
        evict_rank = -1;
        LLM4D_AUDIT_CHECK("sim", committed == audit_committed_before,
                          "rollback changed durable progress: "
                              << audit_committed_before << " -> "
                              << committed << " committed steps");
        LLM4D_AUDIT_CHECK("sim", rep.steps_lost == audit_expected_lost,
                          "rollback lost-step ledger off: "
                              << rep.steps_lost << " != expected "
                              << audit_expected_lost);
        LLM4D_AUDIT_CHECK("sim",
                          tier == CheckpointTier::Global ||
                              (pending == audit_pending && nv == audit_nv),
                          "a " << toString(tier)
                               << " rollback touched the pending or NVMe "
                                  "stage its restore point covers");
        LLM4D_AUDIT_CHECK("sim",
                          tier != CheckpointTier::HbmPeer ||
                              local == audit_local,
                          "an HbmPeer rollback touched the mirrored stage");
    };

    /** Service outage: @p detection_s of detection, then @p rest_s of
     *  recovery work charged to @p bucket; @p warmup restarts the slow
     *  warmup steps. Both parts are charged upfront and refunded if a
     *  back-to-back failure cuts the outage short. */
    const auto begin_outage = [&](double detection_s, double rest_s,
                                  double *bucket, bool warmup) {
        rep.detection_seconds += detection_s;
        *bucket += rest_s;
        outage_rest_s = rest_s;
        outage_bucket = bucket;
        if (warmup)
            warmup_left = cfg_.restart.warmup_steps;
        enter(Busy::Outage);
        const double outage_s = detection_s + rest_s;
        resume_at = eng.now() + secondsToTime(outage_s);
        busy_event = eng.schedule(secondsToTime(outage_s), [&]() {
            busy = Busy::Idle;
            schedule_step();
        });
    };

    /** Stop whatever holds the foreground and return to Idle: a partial
     *  step or non-durable write is lost work, an outage's un-elapsed
     *  tail is refunded (the recovery it paid for never happens), and
     *  the elapsed part of a drain stall is real wall time. */
    const auto interrupt = [&]() {
        switch (busy) {
          case Busy::Idle:
          case Busy::Stopped:
            return;
          case Busy::Work:
            eng.cancel(busy_event);
            rep.lost_seconds += timeToSeconds(eng.now() - busy_since);
            break;
          case Busy::Outage: {
            eng.cancel(busy_event);
            const double remaining = timeToSeconds(resume_at - eng.now());
            const double rest_part = std::min(remaining, outage_rest_s);
            *outage_bucket -= rest_part;
            rep.detection_seconds -= remaining - rest_part;
            break;
          }
          case Busy::SnapshotStall:
          case Busy::FinalStall:
            rep.drain_stall_seconds +=
                timeToSeconds(eng.now() - busy_since);
            break;
        }
        busy = Busy::Idle;
    };

    /** Where the next recovery goes: warm spare -> DP shrink -> full
     *  restart. Restore-tier selection and dispatch both ask, so they
     *  always agree. */
    const auto recovery_path = [&]() {
        if (pol.mode != RecoveryMode::WarmSpare)
            return RecoveryPath::Restart;
        if (spare_pool.available() > 0)
            return RecoveryPath::Swap;
        if (pol.allow_dp_shrink && dp_now > 1 && canShrinkTo(dp_now - 1))
            return RecoveryPath::Shrink;
        return RecoveryPath::Restart;
    };

    /**
     * Restore-tier selection (peek; consumes nothing): the newest tier
     * whose surviving copies cover the fault's blast radius *and* whose
     * restore protocol fits the recovery path about to be dispatched. A
     * Host radius destroyed both local tiers -> Global on every path.
     * The HBM peer tier lives in process memory, so only the live paths
     * (warm-spare swap / DP-shrink) can use it, and only when the
     * partial-restart protocol is enabled; a full restart tears the
     * processes down and re-reads host-local NVMe instead.
     */
    const auto restore_tier = [&](BlastRadius radius) {
        if (!tiered || radius == BlastRadius::Host)
            return CheckpointTier::Global;
        if (recovery_path() != RecoveryPath::Restart)
            return pol.partial_restart ? CheckpointTier::HbmPeer
                                       : CheckpointTier::Global;
        return CheckpointTier::HostLocal;
    };

    /** Recovery dispatch along recovery_path(), restoring from @p tier
     *  (selected by restore_tier for the same pre-dispatch state, so the
     *  paths agree). @p victim_host names the failed node so a
     *  placement-aware policy can pick the nearest spare and price the
     *  swap over the actual path. */
    const auto begin_recovery = [&](double detection_s,
                                    CheckpointTier tier,
                                    std::int64_t victim_host) {
        double &tier_restore_s =
            rep.tier_restore_seconds[static_cast<std::size_t>(tier)];
        // Partial restart (live paths only): only the replacement ranks
        // re-fetch from DP-peer mirrors; no fleet-wide filesystem read.
        const bool partial = tier == CheckpointTier::HbmPeer;
        if (partial)
            ++rep.partial_restarts;
        switch (recovery_path()) {
          case RecoveryPath::Swap: {
            ++rep.spare_swaps;
            // recovery_path() saw a spare, so the claim cannot come back
            // empty.
            const SpareClaim claim = *spare_pool.claimNearest(victim_host);
            RecoveryCostRequest req;
            req.kind = partial ? RecoveryCostRequest::Kind::PartialRestart
                               : RecoveryCostRequest::Kind::SpareSwap;
            if (placement_aware) {
                req.spare_path = claim.path;
                if (!claim.pod_local) {
                    // The replacement lives in another pod: the swap is
                    // priced over the spine and the rank runs displaced
                    // until it can migrate home.
                    ++rep.cross_pod_swaps;
                    ++displaced;
                }
            }
            const CostBreakdown cost = recovery_.price(req);
            tier_restore_s += cost.restoreCriticalSeconds();
            begin_outage(detection_s, cost.totalSeconds(),
                         &rep.spare_swap_seconds, true);
            return;
          }
          case RecoveryPath::Shrink: {
            --dp_now;
            ++rep.dp_shrinks;
            const CostBreakdown cost = recovery_.price(
                {RecoveryCostRequest::Kind::Shrink, dp_now, tier});
            tier_restore_s += cost.restoreCriticalSeconds();
            begin_outage(detection_s, cost.totalSeconds(),
                         &rep.shrink_seconds, true);
            return;
          }
          case RecoveryPath::Restart: {
            ++rep.restarts;
            const CheckpointModel &ckpt = recovery_.checkpointAt(dp_now);
            const double load_s = tier == CheckpointTier::HostLocal
                                      ? ckpt.nvmeRestoreSeconds()
                                      : ckpt.loadSeconds();
            tier_restore_s += load_s;
            begin_outage(detection_s, cfg_.restart.reinit_seconds + load_s,
                         &rep.restart_seconds, true);
            return;
          }
        }
    };

    /** Consume completed repairs at a checkpoint boundary. Migration
     *  first: a repair in a displaced rank's home pod lets it move back
     *  onto the repaired host, ending the spine penalty and returning
     *  its cross-pod spare to the pool. (The repair shop does not track
     *  pod identity, so any ready repair stands in for "the victim's pod
     *  has a healthy host again" — the shop repairs the host that
     *  actually broke.) Then refill the warm-spare pool (a refill is
     *  free — the host parks warm), then batch every remaining ready
     *  host into one DP-regrow priced at the target width, so a single
     *  re-init amortizes all re-admissions. Migration and regrow are
     *  outages without detection: nothing is rolled back (the replica
     *  pulls live state, tentative/pending work survives). Returns true
     *  when an outage was started (the caller must not schedule a step —
     *  the resume will). */
    const auto maybe_reexpand = [&]() {
        if (pol.placement_migration && displaced > 0 &&
            repair_shop.hasReady(eng.now())) {
            while (displaced > 0 && repair_shop.hasReady(eng.now())) {
                repair_shop.pop();
                ++rep.hosts_repaired;
                --displaced;
                ++rep.placement_migrations;
                spare_pool.refill();
            }
            begin_outage(
                0.0,
                recovery_.price({RecoveryCostRequest::Kind::MigrateHome})
                    .totalSeconds(),
                &rep.displacement_seconds, true);
            return true;
        }
        if (!pol.allow_regrow)
            return false;
        std::int64_t grew = 0;
        while (repair_shop.hasReady(eng.now())) {
            const bool pool_low = spare_pool.available() < pol.spare_hosts;
            const bool dp_low = dp_now + grew < cfg_.job.par.dp;
            if (!pool_low && !dp_low)
                break; // fully re-expanded; repairs wait for demand
            // One repaired host unlocks one re-admission: a shrink or
            // swap leaves exactly one broken host (the healthy rest of
            // the dropped replica's group parks with it).
            repair_shop.pop();
            ++rep.hosts_repaired;
            if (pool_low && (pol.regrow_spares_first || !dp_low))
                spare_pool.refill();
            else
                ++grew;
        }
        if (grew == 0)
            return false;
        dp_now += grew;
        rep.dp_regrows += grew;
        begin_outage(
            0.0,
            recovery_.price({RecoveryCostRequest::Kind::Regrow, dp_now})
                .totalSeconds(),
            &rep.regrow_seconds, true);
        return true;
    };

    /** Next move once a global checkpoint write lands. A finish or an
     *  eviction needs its steps durable first, so an async snapshot
     *  blocks for its drain (which calls back here). Otherwise the
     *  boundary is the batching point for migrating displaced ranks
     *  home and re-admitting repaired hosts (durable state to regrow
     *  from is the last drained checkpoint; the replica gathers the rest
     *  from live peers), and steps resume. */
    const auto after_checkpoint = [&]() {
        if (!finishing && evict_rank < 0) {
            if (!maybe_reexpand())
                schedule_step();
            return;
        }
        if (drain_active) {
            enter(Busy::FinalStall);
            return;
        }
        if (finishing) {
            rep.completed = true;
            enter(Busy::Stopped);
            stopped_at = eng.now();
            return;
        }
        const std::int64_t victim = evict_rank;
        stragglers.erase(victim);
        evict_rank = -1;
        // An eviction removes one GPU deliberately — same blast radius
        // as a GpuFatal for tier selection.
        begin_recovery(cfg_.detection.straggler_analysis_seconds,
                       restore_tier(BlastRadius::Gpu), topo.nodeOf(victim));
    };

    const auto start_snapshot = [&]() {
        const double snap_s = recovery_.checkpointAt(dp_now).snapshotSeconds();
        start_work(snap_s, [&, snap_s]() {
            // Snapshot landed in host DRAM: the steps it covers move to
            // the pending (snapshotted, not yet durable) stage and the
            // filesystem drain starts in the background. With tiers the
            // snapshot also supersedes the local-tier coverage.
            rep.checkpoint_seconds += snap_s;
            fold_local();
            pending.absorb(nv);
            drain_active = true;
            drain_event = eng.schedule(
                secondsToTime(recovery_.checkpointAt(dp_now).drainSeconds()),
                [&]() { on_drain_done(); });
            after_checkpoint();
        });
    };

    on_drain_done = [&]() {
        const Busy waited = busy;
        if (waited == Busy::Stopped)
            return;
        drain_active = false;
        make_durable(pending);
        if (waited != Busy::SnapshotStall && waited != Busy::FinalStall)
            return;
        interrupt(); // charges the stall
        if (waited == Busy::SnapshotStall)
            start_snapshot();
        else
            after_checkpoint();
    };

    /** Global checkpoint: an async snapshot (the single host snapshot
     *  buffer forces a stall while the previous drain is still writing
     *  it out), or a sync sharded save that makes every completed step
     *  durable (with tiers it also supersedes the local coverage). */
    const auto save_global = [&]() {
        if (async) {
            if (drain_active) {
                enter(Busy::SnapshotStall);
                return;
            }
            start_snapshot();
            return;
        }
        const double save_s = recovery_.checkpointAt(dp_now).saveSeconds();
        start_work(save_s, [&, save_s]() {
            rep.checkpoint_seconds += save_s;
            fold_local();
            make_durable(nv);
            after_checkpoint();
        });
    };

    /** The run always ends by making the final steps durable. */
    const auto finish = [&]() {
        finishing = true;
        save_global();
    };

    /** Straggler localized: rebalance if the policy allows and the DP
     *  peers have the memory headroom to absorb the shifted
     *  micro-batches; otherwise checkpoint and evict. */
    const auto handle_detected = [&](std::int64_t detected) {
        auto &st = stragglers[detected];
        if (pol.straggler_rebalance && st.speed > 0.0 && st.speed < 1.0 &&
            dp_now > 1) {
            const double degraded_ratio =
                degradedStepSeconds({{detected, st.speed}}) / base_step_s;
            const RebalancePlan plan = planMicrobatchRebalance(
                st.speed, dp_now - 1, stepReportAtDp(dp_now).nmb,
                rebalanceHeadroomMicrobatches(detected, dp_now));
            if (plan.feasible &&
                plan.residual_multiplier <= pol.rebalance_max_residual &&
                plan.residual_multiplier < degraded_ratio) {
                st.mitigated = true;
                st.residual = plan.residual_multiplier;
                ++rep.rebalances;
                // Pure pause (localization + rebalance push): all of it
                // is detection, with no recovery work and no warmup.
                begin_outage(cfg_.detection.straggler_analysis_seconds +
                                 pol.rebalance_seconds,
                             0.0, &rep.detection_seconds, false);
                return;
            }
        }
        // Orderly maintenance restart: make progress durable first (no
        // lost work), then evict the culprit through the recovery path.
        evict_rank = detected;
        save_global();
    };

    const auto truncate_now = [&]() {
        interrupt();
        rollback(CheckpointTier::Global);
        enter(Busy::Stopped);
        stopped_at = eng.now();
    };

    /** A step of @p step_s seconds just ended: book it, count down
     *  straggler detection, and start whatever comes next. @return true
     *  when the next step follows directly (the caller starts it). */
    const auto step_done = [&](double step_s) -> bool {
        ++tentative.steps;
        tentative.base_s += base_step_s;
        tentative.extra_s += step_s - base_step_s;
        if (warmup_left > 0)
            --warmup_left;
        // Straggler detection accumulates evidence one degraded step
        // at a time; mitigated stragglers are already handled.
        // Lowest rank wins ties — explicit even though the ordered
        // map already iterates by rank, so the policy survives a
        // container change.
        std::int64_t detected = -1;
        for (auto &[rank, st] : stragglers) {
            if (st.mitigated)
                continue;
            --st.steps_to_detect;
            if (st.steps_to_detect <= 0 &&
                (detected < 0 || rank < detected))
                detected = rank;
        }
        if (steps_done() >= cfg_.total_steps) {
            finish();
            return false;
        }
        if (detected >= 0) {
            handle_detected(detected);
            return false;
        }
        if (tentative.steps < interval_steps)
            return true;
        if (!tiered) {
            save_global();
            return false;
        }
        // Hierarchical boundary: always block for the HBM peer
        // mirror, fold NVMe on its cadence, and run the global
        // checkpoint on its own cadence. The counter advances only
        // when the write *completes*, so a fault mid-boundary
        // retries the same (possibly global) boundary instead of
        // sliding the cadence.
        const bool global_b = (ckpt_boundary + 1) % hier.global_every == 0;
        const bool nvme_b =
            global_b || (ckpt_boundary + 1) % hier.nvme_every == 0;
        const CheckpointModel &ckpt = recovery_.checkpointAt(dp_now);
        const double local_s = ckpt.hbmMirrorSeconds() +
                               (nvme_b ? ckpt.nvmeWriteSeconds() : 0.0);
        start_work(local_s, [&, local_s, nvme_b, global_b]() {
            ++ckpt_boundary;
            rep.checkpoint_seconds += local_s;
            // The fresh mirror covers the tentative tail.
            local.absorb(tentative);
            if (nvme_b)
                nv.absorb(local);
            if (global_b)
                save_global();
            else
                schedule_step();
        });
        return false;
    };

    // Between two queued events a run's steps are fully determined, so
    // they run inline here instead of one Engine event each. A step
    // that ends strictly before every queued event (fault, drain, flap
    // expiry, outage end) advances the clock and completes in this
    // loop; one that would reach or pass the next event is scheduled as
    // an ordinary event, so a tie still runs the older event first.
    schedule_step = [&]() {
        for (;;) {
            if (busy != Busy::Idle)
                return;
            if (eng.now() > wall_limit) {
                truncate_now();
                return;
            }
            if (tiered && steps_done() >= cfg_.total_steps) {
                // A local-tier rollback can leave every remaining step
                // already covered (only the tentative tail was lost); no
                // step completion will fire again, so finish from here.
                finish();
                return;
            }
            const double step_s = current_step_seconds();
            if (!eng.tryAdvanceTo(eng.now() + secondsToTime(step_s))) {
                start_work(step_s, [&, step_s]() {
                    if (step_done(step_s))
                        schedule_step();
                });
                return;
            }
            if (!step_done(step_s))
                return;
        }
    };

    const auto on_fault = [&](const FaultEvent &ev) {
        if (eng.now() > wall_limit) {
            truncate_now();
            return;
        }
        switch (ev.kind) {
          case FaultKind::GpuFatal:
          case FaultKind::HostCrash: {
            if (ev.kind == FaultKind::GpuFatal)
                ++rep.faults.gpu_fatal;
            else
                ++rep.faults.host_crash;
            // Into the shop unconditionally — see the policy-invariance
            // note at the RepairModel's construction.
            repair_shop.submit(ev);
            // A replaced GPU/host also cures any straggler it hosted.
            if (ev.kind == FaultKind::GpuFatal) {
                stragglers.erase(ev.component);
            } else {
                for (auto it = stragglers.begin();
                     it != stragglers.end();) {
                    if (topo.nodeOf(it->first) == ev.component)
                        it = stragglers.erase(it);
                    else
                        ++it;
                }
            }
            // A back-to-back failure while recovering (e.g. the
            // replacement host dies too) refunds the old outage's
            // un-elapsed tail and recovers from scratch. A rebalance
            // pause, regrow or migration is not a recovery outage:
            // nothing was rolled back when it began and a drain may still
            // be writing; a plain recovery outage already rolled back, so
            // the rollback below is a no-op for it.
            interrupt();
            // Select the newest restore point whose surviving copies
            // cover what this fault destroyed, roll back only the work
            // that restore point does not cover, and dispatch.
            const BlastRadius radius = faultBlastRadius(ev.kind);
            if (tiered && radius == BlastRadius::Host)
                ++rep.tier_fallbacks;
            const CheckpointTier tier = restore_tier(radius);
            LLM4D_AUDIT_CHECK(
                "sim", tierSurvives(tier, radius),
                "restore tier " << toString(tier)
                                << " does not survive a "
                                << toString(radius) << " blast radius ("
                                << toString(ev.kind) << ")");
            rollback(tier);
            // FaultEvent.component is a node index for HostCrash and a
            // GPU rank otherwise.
            const std::int64_t victim_host =
                ev.kind == FaultKind::HostCrash ? ev.component
                                                : topo.nodeOf(ev.component);
            begin_recovery(cfg_.detection.fatalDetectionSeconds(), tier,
                           victim_host);
            break;
          }
          case FaultKind::StragglerOnset: {
            ++rep.faults.stragglers;
            ActiveStraggler st;
            st.speed = ev.severity;
            st.steps_to_detect = stragglerDetectionSteps(
                ev.severity, cfg_.detection.straggler);
            const auto it = stragglers.find(ev.component);
            if (it == stragglers.end()) {
                stragglers[ev.component] = st;
            } else {
                const StragglerOnsetMerge merge = mergeStragglerOnset(
                    it->second.speed, it->second.steps_to_detect,
                    it->second.mitigated, ev.severity,
                    st.steps_to_detect);
                if (merge.reset_mitigation)
                    it->second = ActiveStraggler{};
                it->second.speed = merge.speed;
                it->second.steps_to_detect = merge.steps_to_detect;
            }
            break;
          }
          case FaultKind::LinkFlap: {
            ++rep.faults.link_flaps;
            ActiveFlap flap;
            flap.until = ev.when + ev.duration;
            flap.multiplier = ev.severity;
            const auto it = flaps.find(ev.component);
            if (it == flaps.end() || flap.until > it->second.until)
                flaps[ev.component] = flap;
            eng.scheduleAt(flap.until, [&, rank = ev.component]() {
                const auto fit = flaps.find(rank);
                if (fit != flaps.end() && fit->second.until <= eng.now())
                    flaps.erase(fit);
            });
            break;
          }
        }
    };

    // Pull-based fault stream: exactly one fault event is in the queue at
    // a time; consuming it schedules the next, so the timeline is a pure
    // function of the seed no matter how long the run takes.
    std::function<void()> pump_fault;
    if (has_faults) {
        pump_fault = [&]() {
            const FaultEvent ev = faults.next();
            eng.scheduleAt(std::max(ev.when, eng.now()), [&, ev]() {
                if (busy == Busy::Stopped)
                    return; // queue drains; no further faults are pulled
                rep.timeline.push_back(ev);
                on_fault(ev);
                pump_fault();
            });
        };
        pump_fault();
    }

    schedule_step();
    eng.run();

    rep.steps_committed = committed;
    rep.final_dp = dp_now;
    rep.engine_events = eng.eventsProcessed();
    // The engine clock can drift past the end while draining a trailing
    // (ignored) fault event; the recorded stop time is the true wall.
    const bool stopped = busy == Busy::Stopped;
    rep.wall_seconds = timeToSeconds(stopped ? stopped_at : eng.now());
    rep.goodput_tflops_per_gpu =
        rep.wall_seconds > 0.0
            ? base_.tflops_per_gpu * 1e12 * base_.step_seconds *
                  static_cast<double>(rep.steps_committed) /
                  rep.wall_seconds / 1e12
            : 0.0;
    rep.availability = rep.wall_seconds > 0.0
                           ? rep.productive_seconds / rep.wall_seconds
                           : 0.0;
#if LLM4D_AUDIT_ENABLED
    // Conservation audit: every simulated second must land in exactly
    // one breakdown bucket. A leak here silently corrupts goodput and
    // every ranking built on it, so the audit tier makes it fatal. The
    // test seam lets death tests desynchronize a bucket on purpose.
    rep.lost_seconds += audit_testing::trainrun_lost_skew_seconds;
    const double audit_bucket_sum =
        rep.productive_seconds + rep.degraded_seconds +
        rep.checkpoint_seconds + rep.lost_seconds + rep.detection_seconds +
        rep.restart_seconds + rep.spare_swap_seconds + rep.shrink_seconds +
        rep.regrow_seconds + rep.drain_stall_seconds +
        rep.displacement_seconds;
    LLM4D_AUDIT_CHECK("sim",
                      std::abs(audit_bucket_sum - rep.wall_seconds) <=
                          1e-6 * std::max(rep.wall_seconds, 1.0),
                      "lost-time breakdown leaks: buckets sum to "
                          << audit_bucket_sum << " s but wall clock is "
                          << rep.wall_seconds << " s");
    LLM4D_AUDIT_CHECK("sim",
                      rep.steps_committed >= 0 &&
                          rep.steps_committed <= cfg_.total_steps,
                      "committed step count " << rep.steps_committed
                          << " outside [0, " << cfg_.total_steps << "]");
    LLM4D_AUDIT_CHECK("sim",
                      rep.final_dp == cfg_.job.par.dp - rep.dp_shrinks +
                                          rep.dp_regrows,
                      "elasticity ledger off: final dp "
                          << rep.final_dp << " != " << cfg_.job.par.dp
                          << " - " << rep.dp_shrinks << " shrinks + "
                          << rep.dp_regrows << " regrows");
#endif
    return rep;
}

std::vector<IntervalScanPoint>
TrainRunSim::scanCheckpointIntervals(
    const std::vector<std::int64_t> &intervals) const
{
    std::vector<IntervalScanPoint> points;
    points.reserve(intervals.size());
    for (const std::int64_t interval : intervals) {
        const TrainRunReport r = runWithInterval(interval);
        points.push_back(
            IntervalScanPoint{interval, r.goodput_tflops_per_gpu});
    }
    return points;
}

} // namespace llm4d
