#ifndef LLM4D_FAULT_RECOVERY_POLICY_H_
#define LLM4D_FAULT_RECOVERY_POLICY_H_

/**
 * @file
 * Recovery-policy configuration and cost model for elastic fault
 * recovery.
 *
 * The baseline answer to a fatal fault is a full stop-the-world
 * restart (scheduler re-queue + NCCL re-init + sharded restore).
 * Production systems do better. MegaScale (arXiv:2402.15627)
 * keeps a pool of *warm spare* hosts and recovers by swapping the failed
 * host for a pre-provisioned replacement; when the pool runs dry it can
 * *shrink* the data-parallel dimension — drop one FSDP replica group and
 * re-partition its optimizer shards over the survivors — instead of
 * stalling the whole job. Both paths skip the scheduler round-trip; what
 * remains is spare activation, NCCL re-initialization, and sharded-state
 * re-acquisition, which this model prices through the collective model
 * over the real cluster topology.
 *
 * The policy also selects the checkpointing mode (synchronous sharded
 * saves vs. the TorchTitan-style snapshot + overlapped drain priced by
 * CheckpointModel) and whether localized stragglers are mitigated by
 * micro-batch rebalancing (debug/straggler_detect.h) before falling back
 * to eviction.
 */

#include <cstdint>
#include <map>

#include "llm4d/fault/checkpoint_model.h"
#include "llm4d/fault/spare_placement.h"
#include "llm4d/hw/gpu_spec.h"
#include "llm4d/model/model_config.h"
#include "llm4d/net/topology.h"
#include "llm4d/parallel/parallelism.h"

namespace llm4d {

/** What the run does when a GPU or host dies. */
enum class RecoveryMode
{
    /** Stop the world, re-queue, restart from the last checkpoint. */
    FullRestart,

    /**
     * Swap the failed host for a warm spare; degrade to a DP-shrink
     * when the pool is empty (if allowed), and to a full restart only
     * when shrinking is impossible too.
     */
    WarmSpare,
};

constexpr int kNumRecoveryModes = 2;

/** Display name of @p mode: distinct per enumerator; panics on a
 *  corrupted value. */
const char *toString(RecoveryMode mode);

/** How checkpoints are taken. */
enum class CheckpointMode
{
    Sync,  ///< step blocks for the full sharded filesystem write
    Async, ///< step blocks for a DRAM snapshot; the drain overlaps
};

constexpr int kNumCheckpointModes = 2;

/** Display name of @p mode: distinct per enumerator; panics on a
 *  corrupted value. */
const char *toString(CheckpointMode mode);

/** Full recovery behavior of one training run. */
struct RecoveryPolicy
{
    RecoveryMode mode = RecoveryMode::FullRestart;

    /** Pre-provisioned warm spare hosts (consumed one per swap). */
    std::int64_t spare_hosts = 0;

    /**
     * Where the spares physically live (fault/spare_placement.h). The
     * CentralPool default with placement_migration off is location-blind
     * pricing: every swap is priced pod-locally and no rank is ever
     * counted as displaced.
     */
    SparePlacementPolicy spare_placement = SparePlacementPolicy::CentralPool;

    /**
     * Price spare swaps over the actual victim-to-spare path and track
     * displaced ranks: a cross-pod swap stretches the DP group over the
     * oversubscribed spine, degrading every subsequent step until a
     * host repaired in the victim's pod lets the displaced rank migrate
     * home at a durable checkpoint boundary (counted as
     * placement_migrations; outage seconds in displacement_seconds).
     * Requires the warm-spare recovery mode.
     */
    bool placement_migration = false;

    /** Power-on/health-check/attach latency of a warm spare, seconds. */
    double spare_activation_seconds = 20.0;

    /**
     * NCCL communicator re-initialization after a swap or shrink,
     * seconds. No scheduler re-queue — this is the MegaScale saving.
     */
    double swap_reinit_seconds = 60.0;

    /** Degrade to DP-shrink once the spare pool is exhausted. */
    bool allow_dp_shrink = false;

    /**
     * Re-admit repaired hosts (RepairModel) at durable checkpoint
     * boundaries: regrow the DP dimension back toward its configured
     * width, MegaScale-style. Requires the warm-spare recovery mode.
     */
    bool allow_regrow = false;

    /**
     * When regrowing, refill the warm-spare pool up to its configured
     * size before widening DP. A pool refill is free (the host parks
     * warm); a DP-regrow pays the priced Regrow transition. Only read
     * when allow_regrow is set.
     */
    bool regrow_spares_first = true;

    CheckpointMode checkpoint_mode = CheckpointMode::Sync;

    /**
     * Partial restart (MegaScale-style): on a live recovery path
     * (warm-spare swap or DP-shrink) after a single-GPU fault, only the
     * replacement ranks re-fetch their shards from DP-peer HBM mirrors
     * and survivors reload their in-HBM snapshot, instead of the whole
     * fleet re-reading the global checkpoint. Requires the warm-spare
     * recovery mode and hierarchical checkpoint tiers
     * (CheckpointStorage::hier.enabled). A HostCrash destroys the peer
     * copies, so it always falls back to the global path.
     */
    bool partial_restart = false;

    /** Rebalance micro-batches off a localized straggler vs. evicting. */
    bool straggler_rebalance = false;

    /** Dataloader re-split + schedule push after localization, seconds. */
    double rebalance_seconds = 15.0;

    /**
     * Evict anyway when the post-rebalance residual step-time
     * multiplier exceeds this (the slowdown exceeds what shifting
     * micro-batches can absorb).
     */
    double rebalance_max_residual = 1.05;

    /** The full MegaScale-style mitigation stack, for studies. */
    static RecoveryPolicy elastic(std::int64_t spares);

    /**
     * True when recovery must consult spare locations: either the
     * spares are spread over pods or cross-pod displacement is being
     * tracked. False == the legacy location-blind model.
     */
    [[nodiscard]] bool placementAware() const
    {
        return spare_placement != SparePlacementPolicy::CentralPool ||
               placement_migration;
    }

    /** Abort unless the policy is sane for @p cluster. */
    void validate(const ClusterSpec &cluster) const;
};

/**
 * One recovery transition to price. Call sites name what they are
 * asking for, and placement-dependent fields (spare_path) cannot be
 * forgotten silently.
 */
struct RecoveryCostRequest
{
    enum class Kind
    {
        /** Warm-spare swap restoring from the global checkpoint. */
        SpareSwap,

        /**
         * Warm-spare swap where only the replacement ranks re-fetch
         * shards from DP-peer HBM mirrors; survivors reload in-HBM
         * snapshots. Requires hierarchical tiers.
         */
        PartialRestart,

        /** Drop to to_dp replicas; restore from restore_tier. */
        Shrink,

        /** Regrow to to_dp replicas after repairs. */
        Regrow,

        /**
         * A displaced rank (cross-pod spare) migrates back onto a
         * repaired host in its home pod at a checkpoint boundary: NCCL
         * re-init + a pod-local state gather from its FSDP peers.
         */
        MigrateHome,
    };

    Kind kind = Kind::SpareSwap;

    /** Target DP width; read by Shrink and Regrow only. */
    std::int64_t to_dp = 0;

    /** Tier the sharded restore reads from; read by Shrink only. */
    CheckpointTier restore_tier = CheckpointTier::Global;

    /**
     * Victim-to-spare path level (SpareClaim::path); read by SpareSwap
     * and PartialRestart. Pod (the pod-local case) reproduces the
     * legacy location-blind pricing exactly; Spine pulls the restore
     * gather through the oversubscribed spine.
     */
    NetLevel spare_path = NetLevel::Pod;
};

/** Priced components of one recovery transition. */
struct CostBreakdown
{
    /** Spare power-on/health-check/attach latency. */
    double activation_seconds = 0.0;

    /** NCCL communicator re-initialization. */
    double reinit_seconds = 0.0;

    /** Sharded checkpoint restore (filesystem / NVMe / HBM tier). */
    double restore_seconds = 0.0;

    /** Peer state gather (BF16 weights / re-shard / re-admit fetch). */
    double gather_seconds = 0.0;

    /** Restore and gather overlap; the longer one bounds the outage. */
    [[nodiscard]] double restoreCriticalSeconds() const;

    /** Total outage, excluding detection latency. */
    [[nodiscard]] double totalSeconds() const;
};

/**
 * Prices the one-time transition costs of each recovery path for one
 * job. All network terms go through CollectiveModel over the job's
 * actual topology; storage terms through CheckpointModel at the DP
 * width the transition lands on. checkpointAt() owns the one
 * CheckpointModel per width, so the run simulator's saves and this
 * model's restores read the same prices.
 */
class RecoveryCostModel
{
  public:
    RecoveryCostModel(const ModelConfig &model, const ClusterSpec &cluster,
                      const ParallelismConfig &par,
                      CheckpointStorage storage, RecoveryPolicy policy);

    [[nodiscard]] const RecoveryPolicy &policy() const { return policy_; }

    /**
     * Checkpoint pricing with DP shrunk (or regrown) to @p dp replicas,
     * on the hosts that layout occupies. The configured width is built
     * with the model; other widths are built on first use and kept, so
     * a reference stays valid for the model's lifetime.
     */
    [[nodiscard]] const CheckpointModel &checkpointAt(std::int64_t dp) const;

    /**
     * Price one recovery transition. The single entry point for every
     * recovery path — see RecoveryCostRequest::Kind for the catalogue
     * and the per-field docs for which request fields each kind reads.
     */
    [[nodiscard]] CostBreakdown price(const RecoveryCostRequest &req) const;

    /** The parallelism layout after shrinking to @p dp replicas. */
    [[nodiscard]] static ParallelismConfig
    shrunkPar(const ParallelismConfig &par, std::int64_t dp);

    /** The cluster actually occupied by @p par (for re-pricing steps). */
    [[nodiscard]] static ClusterSpec
    shrunkCluster(const ClusterSpec &cluster, const ParallelismConfig &par);

  private:
    [[nodiscard]] CostBreakdown priceSwap(const RecoveryCostRequest &req) const;
    [[nodiscard]] CostBreakdown priceShrink(const RecoveryCostRequest &req) const;
    [[nodiscard]] CostBreakdown priceRegrow(const RecoveryCostRequest &req) const;
    [[nodiscard]] CostBreakdown priceMigrateHome() const;

    ModelConfig model_;
    ClusterSpec cluster_;
    ParallelismConfig par_;
    CheckpointStorage storage_;
    RecoveryPolicy policy_;

    /** Checkpoint pricing at the configured width (par_.dp). */
    CheckpointModel ckpt_;

    /** Checkpoint pricing at other widths, filled by checkpointAt(). */
    mutable std::map<std::int64_t, CheckpointModel> shrunk_ckpt_;

    /** BF16 weights gather at the group's own level / forced Spine. */
    double weights_fetch_seconds_ = 0.0;
    double weights_fetch_spine_seconds_ = 0.0;

    /** Pod-local FSDP state gather of the homecoming rank. */
    double migrate_home_gather_seconds_ = 0.0;
};

} // namespace llm4d

#endif // LLM4D_FAULT_RECOVERY_POLICY_H_
