#include "llm4d/sim/train_sim.h"

#include <algorithm>
#include <cmath>

#include "llm4d/cp/sharding.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/schedule.h"
#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng_streams.h"
#include "llm4d/tensor/doc_mask.h"

namespace llm4d {

double
TrainStepReport::maxMemoryGib() const
{
    double peak = 0.0;
    for (const MemoryBreakdown &mb : pp_rank_memory)
        peak = std::max(peak, mb.totalGib());
    return peak;
}

bool
TrainStepReport::fits(double capacity_gib, double headroom) const
{
    return maxMemoryGib() <= capacity_gib * headroom;
}

namespace {

StageAssignment
makeAssignment(const TrainJobConfig &cfg, std::int64_t v)
{
    if (cfg.balanced_layers)
        return StageAssignment::balanced(cfg.model.num_layers, cfg.par.pp,
                                         v);
    return StageAssignment::uniform(cfg.model.num_layers, cfg.par.pp, v);
}

std::int64_t
deriveVirtualStages(const TrainJobConfig &cfg)
{
    const std::int64_t per_rank =
        ceilDiv(cfg.model.num_layers, cfg.par.pp);
    return std::max<std::int64_t>(
        1, ceilDiv(per_rank, cfg.layers_per_vstage));
}

} // namespace

TrainSim::TrainSim(TrainJobConfig cfg)
    : cfg_(std::move(cfg)),
      assignment_(makeAssignment(cfg_, deriveVirtualStages(cfg_)))
{
    cfg_.par.validate();
    LLM4D_CHECK(cfg_.par.worldSize() == cfg_.cluster.numGpus(),
                "parallelism " << cfg_.par.str() << " ("
                               << cfg_.par.worldSize()
                               << " GPUs) does not match cluster of "
                               << cfg_.cluster.numGpus());
    LLM4D_CHECK(cfg_.global_batch_tokens % cfg_.seq == 0,
                "global batch tokens must be whole sequences");
    const std::int64_t gbs_seqs = cfg_.global_batch_tokens / cfg_.seq;
    LLM4D_CHECK(gbs_seqs % cfg_.par.dp == 0,
                "global batch of " << gbs_seqs
                                   << " sequences must divide across dp="
                                   << cfg_.par.dp);
    bs_ = gbs_seqs / cfg_.par.dp;
    LLM4D_CHECK(bs_ % cfg_.mbs == 0, "bs must divide into micro-batches");
    nmb_ = bs_ / cfg_.mbs;
    v_ = deriveVirtualStages(cfg_);
    LLM4D_CHECK(cfg_.seq % (2 * cfg_.par.cp) == 0,
                "sequence must split into 2*cp chunks");
    LLM4D_CHECK(cfg_.model.heads % cfg_.par.tp == 0,
                "tp must divide attention heads");
}

/** Pre-computed per-(rank, vstage, mb) costs. */
struct TrainSim::StageCostTable
{
    // [rank][vstage] base costs; per-mb attention variation applied on
    // top via mb_attn_scale.
    std::vector<std::vector<StageCost>> base;
    std::vector<double> mb_fwd_scale; ///< attention scaling per micro-batch
    std::vector<double> mb_bwd_scale;
    double fwd_flops_per_rank = 0.0; ///< per micro-batch, mean over ranks
    double bwd_flops_per_rank = 0.0;
};

TrainStepReport
TrainSim::run() const
{
    const TrainJobConfig &cfg = cfg_;
    const Topology topo(cfg.cluster);
    const CollectiveModel coll(topo);
    const RankGrid grid(cfg.par);
    const LayerCostModel lcm(BlockDims::fromText(cfg.model),
                             cfg.cluster.node.gpu, cfg.par.tp);
    const KernelModel &kernels = lcm.kernels();

    // ---- Workload per micro-batch on one rank. ----
    const std::int64_t tokens_local = cfg.mbs * cfg.seq / cfg.par.cp;
    const std::int64_t kv_tokens = cfg.seq;

    // Attention pairs per micro-batch for this rank's CP shard. With a
    // document mask, the step is bounded by the slowest CP rank, so we
    // price the worst shard of each sampled mask (Section 4).
    std::vector<double> mb_pairs(static_cast<std::size_t>(nmb_));
    {
        const CpSharding sharding(cfg.seq, cfg.par.cp);
        auto worst_shard_pairs = [&](const DocMask &mask) {
            if (cfg.par.cp == 1)
                return mask.totalPairs();
            std::int64_t pairs = 0;
            for (std::int64_t r = 0; r < cfg.par.cp; ++r)
                pairs = std::max(pairs, sharding.pairsOf(r, mask));
            return pairs;
        };
        if (cfg.doc_mask_mean > 0.0) {
            Rng rng(cfg.seed, rng_streams::kDocMaskSampleStream);
            for (double &pairs : mb_pairs) {
                pairs = static_cast<double>(worst_shard_pairs(DocMask::sample(
                            cfg.seq, cfg.doc_mask_mean, rng))) *
                        cfg.mbs;
            }
        } else {
            // The causal mask draws nothing: every micro-batch is alike.
            std::fill(mb_pairs.begin(), mb_pairs.end(),
                      static_cast<double>(worst_shard_pairs(
                          DocMask::causal(cfg.seq))) *
                          cfg.mbs);
        }
    }

    // ---- Per-layer communication (exposed on the critical path). ----
    const auto tp_group = grid.tpGroup(0);
    const auto cp_group = grid.cpGroup(0);
    double tp_comm_layer_fwd = 0.0;
    if (cfg.par.tp > 1) {
        tp_comm_layer_fwd =
            LayerCostModel::kTpCollectivesPerLayer *
            coll.allGather(tp_group,
                           lcm.tpCollectiveShardBytes(tokens_local));
    }
    const double tp_comm_layer_bwd = tp_comm_layer_fwd;
    double cp_comm_layer_fwd = 0.0;
    double cp_comm_layer_bwd = 0.0;
    if (cfg.par.cp > 1) {
        const std::int64_t kv_heads_tp = std::max<std::int64_t>(
            1, cfg.model.kv_heads / cfg.par.tp);
        const std::int64_t kv_shard_bytes =
            tokens_local * 2 * 2 * kv_heads_tp * cfg.model.headDim();
        cp_comm_layer_fwd = coll.allGather(cp_group, kv_shard_bytes);
        cp_comm_layer_bwd = coll.reduceScatter(cp_group, kv_shard_bytes);
    }

    // ---- Base stage costs (micro-batch-independent parts). ----
    const std::int64_t ref_pairs = static_cast<std::int64_t>(mb_pairs[0]);
    const LayerCost layer_ref =
        lcm.selfAttentionLayer(tokens_local, ref_pairs, kv_tokens);
    // Recompute modes: part or all of the forward reruns in backward.
    const double recompute_factor =
        cfg.act == ActivationMode::Recompute
            ? 1.0
            : (cfg.act == ActivationMode::Selective ? 0.5 : 0.0);

    StageCostTable table;
    table.base.assign(static_cast<std::size_t>(cfg.par.pp),
                      std::vector<StageCost>(
                          static_cast<std::size_t>(v_)));
    double total_fwd_flops = 0.0, total_bwd_flops = 0.0;
    for (std::int64_t r = 0; r < cfg.par.pp; ++r) {
        // Representative global rank of this PP coordinate.
        const std::int64_t grank =
            grid.rankOf(RankCoord{0, 0, r, 0});
        const double speed = cfg.perf.speedOf(grank);
        for (std::int64_t s = 0; s < v_; ++s) {
            const StageContents &contents = assignment_.stage(r, s);
            LayerCost cost = layer_ref.scaled(
                static_cast<double>(contents.layers));
            double fwd_comm =
                static_cast<double>(contents.layers) *
                (tp_comm_layer_fwd + cp_comm_layer_fwd);
            double bwd_comm =
                static_cast<double>(contents.layers) *
                (tp_comm_layer_bwd + cp_comm_layer_bwd);
            if (contents.embedding)
                cost += lcm.embedding(tokens_local, cfg.model.vocab);
            if (contents.head) {
                cost += lcm.outputHead(tokens_local, cfg.model.vocab);
                if (cfg.par.tp > 1) {
                    // Vocabulary-parallel head: one extra collective.
                    fwd_comm += coll.allGather(
                        tp_group, lcm.tpCollectiveShardBytes(tokens_local));
                }
            }
            StageCost sc;
            sc.fwd_seconds = (cost.fwd_seconds + fwd_comm) / speed;
            sc.bwd_seconds = (cost.bwd_seconds + bwd_comm +
                              recompute_factor * cost.fwd_seconds) /
                             speed;
            table.base[static_cast<std::size_t>(r)]
                      [static_cast<std::size_t>(s)] = sc;
            total_fwd_flops += cost.fwd_flops;
            total_bwd_flops += cost.bwd_flops;
        }
    }
    // Per-micro-batch attention scaling relative to the reference mask.
    table.mb_fwd_scale.assign(static_cast<std::size_t>(nmb_), 1.0);
    table.mb_bwd_scale.assign(static_cast<std::size_t>(nmb_), 1.0);
    if (cfg.doc_mask_mean > 0.0) {
        // Attention share of the reference layer forward/backward.
        const std::int64_t heads_tp = cfg.model.heads / cfg.par.tp;
        const std::int64_t kv_heads_tp = std::max<std::int64_t>(
            1, cfg.model.kv_heads / cfg.par.tp);
        const double attn_fwd_ref = kernels.attentionTime(
            ref_pairs, tokens_local, kv_tokens, heads_tp, kv_heads_tp,
            cfg.model.headDim());
        const double attn_bwd_ref = kernels.attentionBackwardTime(
            ref_pairs, tokens_local, kv_tokens, heads_tp, kv_heads_tp,
            cfg.model.headDim());
        for (std::int64_t m = 0; m < nmb_; ++m) {
            const auto pairs = static_cast<std::int64_t>(
                mb_pairs[static_cast<std::size_t>(m)]);
            const double dfwd =
                kernels.attentionTime(pairs, tokens_local, kv_tokens,
                                      heads_tp, kv_heads_tp,
                                      cfg.model.headDim()) -
                attn_fwd_ref;
            const double dbwd =
                kernels.attentionBackwardTime(pairs, tokens_local,
                                              kv_tokens, heads_tp,
                                              kv_heads_tp,
                                              cfg.model.headDim()) -
                attn_bwd_ref;
            table.mb_fwd_scale[static_cast<std::size_t>(m)] =
                1.0 + dfwd / std::max(1e-12, layer_ref.fwd_seconds);
            table.mb_bwd_scale[static_cast<std::size_t>(m)] =
                1.0 + dbwd / std::max(1e-12, layer_ref.bwd_seconds);
        }
    }

    // ---- Schedule. ----
    ScheduleParams sp;
    sp.pp = cfg.par.pp;
    sp.v = v_;
    sp.nmb = nmb_;
    sp.nc = cfg.nc > 0 ? cfg.nc : std::min(nmb_, cfg.par.pp);
    Schedule schedule = [&] {
        switch (cfg.schedule) {
          case ScheduleKind::Interleaved1F1B:
            return buildInterleaved1F1B(sp);
          case ScheduleKind::AllForwardAllBackward:
            return buildAllForwardAllBackward(sp);
          case ScheduleKind::Flexible:
            return buildFlexible(sp);
        }
        LLM4D_PANIC("unreachable schedule kind");
    }();

    // ---- Executor wiring. ----
    // FSDP collectives congest PP P2P when both use the NICs.
    const bool fsdp_active = cfg.par.dp * cfg.par.cp > 1;
    const double congestion = p2pCongestionFactor(fsdp_active);
    const std::int64_t boundary_bytes =
        2 * tokens_local * cfg.model.hidden / cfg.par.tp;
    ExecConfig exec_cfg;
    exec_cfg.stage_cost = [&](std::int64_t rank, std::int64_t vstage,
                              std::int64_t mb) {
        StageCost sc = table.base[static_cast<std::size_t>(rank)]
                                 [static_cast<std::size_t>(vstage)];
        sc.fwd_seconds *= table.mb_fwd_scale[static_cast<std::size_t>(mb)];
        sc.bwd_seconds *= table.mb_bwd_scale[static_cast<std::size_t>(mb)];
        return sc;
    };
    // Hand-off price per (from, to) PP rank pair, priced once per run.
    const auto pp = static_cast<std::size_t>(cfg.par.pp);
    std::vector<double> p2p_table(pp * pp);
    for (std::int64_t from = 0; from < cfg.par.pp; ++from) {
        const std::int64_t src = grid.rankOf(RankCoord{0, 0, from, 0});
        for (std::int64_t to = 0; to < cfg.par.pp; ++to) {
            const std::int64_t dst = grid.rankOf(RankCoord{0, 0, to, 0});
            p2p_table[static_cast<std::size_t>(from) * pp +
                      static_cast<std::size_t>(to)] =
                coll.p2p(src, dst, boundary_bytes) * congestion;
        }
    }
    exec_cfg.p2p_seconds = [&](std::int64_t from, std::int64_t to) {
        return p2p_table[static_cast<std::size_t>(from) * pp +
                         static_cast<std::size_t>(to)];
    };
    const ExecResult exec = executeSchedule(schedule, exec_cfg);

    // ---- FSDP exposure and optimizer. ----
    const std::int64_t fsdp_shard = cfg.par.dp * cfg.par.cp;
    const MemoryModel mem(cfg.model, cfg.par.tp, fsdp_shard, cfg.zero,
                          cfg.memory_optimized);
    const auto dpcp_group = grid.dpCpGroup(0);
    double exposed_fsdp = 0.0;
    if (fsdp_shard > 1) {
        // First parameter all-gather (one stage) has nothing to hide
        // behind; the last gradient reduce-scatter likewise.
        const std::int64_t max_stage_layers = assignment_.maxStageLayers();
        const std::int64_t stage_params_bytes = static_cast<std::int64_t>(
            2.0 * static_cast<double>(max_stage_layers) *
            cfg.model.paramsPerLayer() / cfg.par.tp);
        FsdpTraffic traffic;
        traffic.param_bytes = stage_params_bytes;
        traffic.shard_degree = fsdp_shard;
        traffic.mode = cfg.zero;
        exposed_fsdp =
            coll.allGather(dpcp_group, traffic.allGatherShardBytes()) +
            coll.reduceScatter(dpcp_group,
                               traffic.reduceScatterShardBytes());
        if (cfg.zero == ZeroMode::Zero2) {
            // ZeRO-2 reduce-scatters every stage once per consecutive
            // round (Fig. 4c); the extra rounds contend with P2P traffic
            // and end up partially exposed (Section 3.1.3).
            const std::int64_t rounds = ceilDiv(nmb_, sp.nc);
            exposed_fsdp +=
                0.5 *
                coll.reduceScatter(dpcp_group,
                                   traffic.reduceScatterShardBytes()) *
                static_cast<double>(v_) *
                static_cast<double>(
                    std::max<std::int64_t>(0, rounds - 1));
        }
    }
    const double params_per_rank =
        static_cast<double>(assignment_.layersOnRank(0)) *
        cfg.model.paramsPerLayer() / cfg.par.tp;
    const double optimizer_seconds = kernels.elementwiseTime(
        static_cast<std::int64_t>(12.0 * params_per_rank / fsdp_shard));

    // ---- Report. ----
    TrainStepReport rep;
    rep.bs = bs_;
    rep.nmb = nmb_;
    rep.v = v_;
    rep.step_seconds = timeToSeconds(exec.makespan) + exposed_fsdp +
                       optimizer_seconds;
    rep.bubble_ratio = exec.overallBubbleRatio();
    rep.exposed_tp_seconds =
        (tp_comm_layer_fwd + tp_comm_layer_bwd) *
        static_cast<double>(assignment_.layersOnRank(0)) *
        static_cast<double>(nmb_);
    rep.exposed_cp_seconds =
        (cp_comm_layer_fwd + cp_comm_layer_bwd) *
        static_cast<double>(assignment_.layersOnRank(0)) *
        static_cast<double>(nmb_);
    rep.exposed_fsdp_seconds = exposed_fsdp;
    rep.optimizer_seconds = optimizer_seconds;

    // Useful FLOPs per GPU: mean across pipeline ranks of per-step work.
    const double flops_per_rank_step =
        (total_fwd_flops + total_bwd_flops) /
        static_cast<double>(cfg.par.pp) * static_cast<double>(nmb_);
    rep.tflops_per_gpu = flops_per_rank_step / rep.step_seconds / 1e12;
    rep.mfu = rep.tflops_per_gpu /
              cfg.cluster.node.gpu.peak_bf16_tflops;

    // Memory per PP rank.
    for (std::int64_t r = 0; r < cfg.par.pp; ++r) {
        bool has_embed = false, has_head = false;
        std::int64_t stage_layers = 0;
        for (std::int64_t s = 0; s < v_; ++s) {
            const StageContents &c = assignment_.stage(r, s);
            has_embed |= c.embedding;
            has_head |= c.head;
            stage_layers = std::max(stage_layers, c.layers);
        }
        rep.pp_rank_memory.push_back(mem.rankPeak(
            assignment_.layersOnRank(r), stage_layers,
            static_cast<double>(exec.peakInFlight(r)), tokens_local,
            has_embed, has_head, cfg.act));
    }
    return rep;
}

} // namespace llm4d
