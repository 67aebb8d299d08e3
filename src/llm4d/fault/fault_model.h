#ifndef LLM4D_FAULT_FAULT_MODEL_H_
#define LLM4D_FAULT_FAULT_MODEL_H_

/**
 * @file
 * Stochastic component-failure model for multi-day training runs.
 *
 * Paper Section 8 argues that at 16K-GPU scale hardware variation and
 * failures dominate operational behavior; the Llama 3 technical report
 * counts 419 unexpected interruptions in a 54-day run (~3h cluster MTBF),
 * ~59% GPU-attributed. Each component class fails as an independent
 * Poisson process whose rate comes from the MTBF fields on
 * GpuSpec/NodeSpec (hw/gpu_spec.h); class streams draw from independent
 * deterministic RNG streams, so a fault timeline is a pure function of
 * (cluster, tuning, seed) regardless of how far it is consumed.
 *
 * Four classes, after MegaScale's (arXiv:2402.15627) taxonomy:
 *  - GpuFatal:       a GPU dies; the job aborts and must restart.
 *  - HostCrash:      a whole 8-GPU host drops; job aborts and restarts.
 *  - LinkFlap:       a NIC degrades (not severs) for a bounded duration.
 *  - StragglerOnset: a GPU silently slows down; the synchronized cluster
 *                    drags until trace-driven localization finds it.
 */

#include <cstdint>
#include <optional>
#include <string>

#include "llm4d/fault/colocation_model.h"
#include "llm4d/hw/gpu_spec.h"
#include "llm4d/simcore/rng.h"
#include "llm4d/simcore/time.h"

namespace llm4d {

/** Component-failure classes. */
enum class FaultKind
{
    GpuFatal,
    HostCrash,
    LinkFlap,
    StragglerOnset,
};

constexpr int kNumFaultKinds = 4;

/** Display name of @p kind: distinct per enumerator; panics on a
 *  corrupted value. */
const char *toString(FaultKind kind);

/**
 * Failure domain of a fault: the widest scope of *state* the fault
 * destroys, independent of whether the job aborts. Checkpoint tiers
 * declare which blast radii their copies survive
 * (tierSurvives() in fault/checkpoint_model.h), and restore selects
 * the newest tier whose surviving copies cover the triggering fault.
 */
enum class BlastRadius
{
    None, ///< degrades performance only; no state is lost
    Gpu,  ///< one GPU's HBM contents are lost; its host survives
    Host, ///< a whole host: its GPUs' HBM *and* its NVMe/DRAM copies
};

constexpr int kNumBlastRadii = 3;

/** Display name of @p radius: distinct per enumerator; panics on a
 *  corrupted value. */
const char *toString(BlastRadius radius);

/** Failure-domain query: what state does a fault of this kind destroy? */
[[nodiscard]] BlastRadius faultBlastRadius(FaultKind kind);

/** One sampled failure. */
struct FaultEvent
{
    FaultKind kind = FaultKind::GpuFatal;

    /** Absolute simulated time of onset. */
    Time when = 0;

    /**
     * Failing component: global GPU rank for GpuFatal / StragglerOnset /
     * LinkFlap (one NIC per GPU), node index for HostCrash.
     */
    std::int64_t component = 0;

    /**
     * Severity in (0, 1]: surviving speed factor for StragglerOnset,
     * surviving link-capacity factor for LinkFlap, unused (1.0) for the
     * fatal classes.
     */
    double severity = 1.0;

    /** Degradation window for LinkFlap; 0 for other kinds. */
    Time duration = 0;

    /** True for classes that abort the job (GpuFatal, HostCrash). */
    [[nodiscard]] bool fatal() const
    {
        return kind == FaultKind::GpuFatal || kind == FaultKind::HostCrash;
    }

    /** "t=123.4s GpuFatal gpu=17"-style rendering. */
    [[nodiscard]] std::string str() const;
};

/** Severity/duration distributions not derivable from the hw specs. */
struct FaultTuning
{
    /** Straggler surviving-speed range (uniform), per Section 8.1. */
    double straggler_speed_lo = 0.55;
    double straggler_speed_hi = 0.95;

    /** Surviving link capacity during a flap (uniform range). */
    double flap_capacity_lo = 0.15;
    double flap_capacity_hi = 0.6;

    /** Mean flap duration, seconds (exponential). */
    double flap_duration_mean_s = 300.0;

    /**
     * Pod-heat co-location model (fault/colocation_model.h). When
     * enabled, StragglerOnset arrivals come from PodHeatModel on its own
     * registered streams — correlated within pods, worse severities in
     * hot pods — instead of the independent per-class stream. Every
     * other class's timeline is bit-identical either way.
     */
    ColocationTuning colocation;

    /** Abort unless every range is sane. */
    void validate() const;
};

/**
 * Generator of a deterministic, time-ordered fault timeline for one
 * cluster. next() is a pull-based stream: events come out in
 * non-decreasing time order, unbounded, so callers simulate arbitrarily
 * long runs without picking a horizon up front.
 */
class FaultModel
{
  public:
    FaultModel(const ClusterSpec &cluster, const FaultTuning &tuning,
               std::uint64_t seed);

    /** Next failure event, strictly ordered by time (FIFO on ties). */
    FaultEvent next();

    /** Aggregate event rate over all enabled classes, events/hour. */
    [[nodiscard]] double eventsPerHour() const;

    /** Mean time between events across all classes, in seconds. */
    [[nodiscard]] double mtbfSeconds() const;

    /** True when every class is disabled (the fault-free baseline). */
    [[nodiscard]] bool silent() const;

    /** The pod-heat model driving correlated straggler arrivals, or
     *  nullptr when tuning.colocation is off (or stragglers disabled). */
    [[nodiscard]] const PodHeatModel *podHeat() const
    {
        return heat_ ? &*heat_ : nullptr;
    }

  private:
    struct ClassState
    {
        double rate_per_second = 0.0; ///< components / mtbf
        std::int64_t components = 0;
        Time next_at = 0;
        Rng rng{0};
    };

    void advance(int k);

    ClusterSpec cluster_;
    FaultTuning tuning_;
    ClassState classes_[kNumFaultKinds];
    /** Engaged iff tuning.colocation.enabled and stragglers are on; the
     *  straggler class's next_at then mirrors pending_onset_.when. */
    std::optional<PodHeatModel> heat_;
    CorrelatedOnset pending_onset_;
};

} // namespace llm4d

#endif // LLM4D_FAULT_FAULT_MODEL_H_
