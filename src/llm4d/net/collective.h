#ifndef LLM4D_NET_COLLECTIVE_H_
#define LLM4D_NET_COLLECTIVE_H_

/**
 * @file
 * Analytic latency/bandwidth cost models for the collectives used by 4D
 * parallelism: ring all-gather / reduce-scatter / all-reduce, tree
 * broadcast, and point-to-point sends. Completion semantics are
 * synchronizing: a collective cannot finish before its slowest member has
 * contributed, which is how the paper's "waiting for the slowest rank"
 * results (Sections 6.1 and 7.3.2) arise.
 */

#include <cstdint>
#include <vector>

#include "llm4d/net/topology.h"

namespace llm4d {

/** Collective operation kinds (for reporting/trace labels). */
enum class CollectiveKind
{
    AllGather,
    ReduceScatter,
    AllReduce,
    Broadcast,
    Gather,
    P2P,
};

constexpr int kNumCollectiveKinds = 6;

/** Display name of @p kind: distinct per enumerator; panics on a
 *  corrupted value. */
const char *toString(CollectiveKind kind);

/** Cost models for collectives over a given topology. */
class CollectiveModel
{
  public:
    /**
     * Fraction of link bandwidth a well-tuned collective actually
     * achieves (protocol overheads, chunking, ring imbalance). NCCL-class
     * rings on NVLink top out around 70% of the unidirectional rate,
     * which also reproduces the ~300 GB/s ceiling of paper Figure 12.
     */
    static constexpr double kBandwidthEfficiency = 0.70;

    /** Build over a topology (borrowed; must outlive the model). */
    explicit CollectiveModel(const Topology &topo);

    const Topology &topology() const { return *topo_; }

    /**
     * Ring all-gather duration: each rank holds @p bytes_per_rank and ends
     * with all shards. Time = (p-1) * (shard / bottleneck_bw + hop_lat).
     */
    double allGather(const std::vector<std::int64_t> &ranks,
                     std::int64_t bytes_per_rank) const;

    /** Ring reduce-scatter: mirror image of all-gather (same cost). */
    double reduceScatter(const std::vector<std::int64_t> &ranks,
                         std::int64_t bytes_per_rank) const;

    /** Ring all-reduce = reduce-scatter + all-gather over @p bytes total. */
    double allReduce(const std::vector<std::int64_t> &ranks,
                     std::int64_t bytes) const;

    /** Binomial-tree broadcast of @p bytes from one rank to the group. */
    double broadcast(const std::vector<std::int64_t> &ranks,
                     std::int64_t bytes) const;

    /**
     * Gather @p bytes_per_rank from every group member onto one root —
     * the re-shard primitive of elastic recovery: a warm-spare (or a
     * surviving rank after a DP-shrink) pulls the state shards it must
     * now own from its group peers. Bound by the root's ingress link:
     * (p-1) shards serialize through the root's bottleneck level.
     */
    double gatherTo(const std::vector<std::int64_t> &ranks,
                    std::int64_t bytes_per_rank) const;

    /**
     * gatherTo() with the path level pinned instead of derived from a
     * rank list — for pricing a gather whose root is *hypothetical*
     * (e.g. a warm spare whose pod placement the recovery policy picks:
     * Pod for a pod-local replacement, Spine for a cross-pod one).
     * Identical arithmetic to gatherTo over a @p group_size-rank group
     * spanning @p level.
     */
    double gatherToAtLevel(NetLevel level, std::int64_t group_size,
                           std::int64_t bytes_per_rank) const;

    /** Point-to-point transfer of @p bytes between two ranks. */
    double p2p(std::int64_t src, std::int64_t dst, std::int64_t bytes) const;

    /**
     * Achieved "bus bandwidth" for reporting (nccl-tests convention):
     * bytes actually moved per rank divided by elapsed time. For a ring
     * all-gather that is (p-1) * shard_bytes / seconds.
     */
    static double achievedBusBandwidth(std::int64_t participants,
                                       std::int64_t bytes_per_rank,
                                       double seconds);

  private:
    const Topology *topo_;
};

} // namespace llm4d

#endif // LLM4D_NET_COLLECTIVE_H_
