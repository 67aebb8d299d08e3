#include "llm4d/net/collective.h"

#include <cmath>

#include "llm4d/simcore/common.h"

namespace llm4d {

const char *
toString(CollectiveKind kind)
{
    switch (kind) {
      case CollectiveKind::AllGather:
        return "all_gather";
      case CollectiveKind::ReduceScatter:
        return "reduce_scatter";
      case CollectiveKind::AllReduce:
        return "all_reduce";
      case CollectiveKind::Broadcast:
        return "broadcast";
      case CollectiveKind::Gather:
        return "gather";
      case CollectiveKind::P2P:
        return "p2p";
    }
    LLM4D_PANIC("unreachable collective kind");
}

CollectiveModel::CollectiveModel(const Topology &topo) : topo_(&topo) {}

double
CollectiveModel::allGather(const std::vector<std::int64_t> &ranks,
                           std::int64_t bytes_per_rank) const
{
    LLM4D_ASSERT(!ranks.empty(), "empty collective group");
    LLM4D_ASSERT(bytes_per_rank >= 0, "negative collective size");
    const auto p = static_cast<std::int64_t>(ranks.size());
    if (p == 1 || bytes_per_rank == 0)
        return 0.0;
    const NetLevel level = topo_->levelOf(ranks);
    const double bw =
        topo_->bandwidth(level) * 1e9 * kBandwidthEfficiency;
    const double lat = topo_->latency(level);
    const double steps = static_cast<double>(p - 1);
    return steps * (static_cast<double>(bytes_per_rank) / bw + lat);
}

double
CollectiveModel::reduceScatter(const std::vector<std::int64_t> &ranks,
                               std::int64_t bytes_per_rank) const
{
    // A ring reduce-scatter moves the same bytes over the same links as
    // the ring all-gather; the reduction itself rides HBM bandwidth and is
    // folded into the transfer term.
    return allGather(ranks, bytes_per_rank);
}

double
CollectiveModel::allReduce(const std::vector<std::int64_t> &ranks,
                           std::int64_t bytes) const
{
    LLM4D_ASSERT(!ranks.empty(), "empty collective group");
    const auto p = static_cast<std::int64_t>(ranks.size());
    if (p == 1 || bytes == 0)
        return 0.0;
    const std::int64_t shard = ceilDiv(bytes, p);
    return reduceScatter(ranks, shard) + allGather(ranks, shard);
}

double
CollectiveModel::broadcast(const std::vector<std::int64_t> &ranks,
                           std::int64_t bytes) const
{
    LLM4D_ASSERT(!ranks.empty(), "empty collective group");
    const auto p = static_cast<std::int64_t>(ranks.size());
    if (p == 1 || bytes == 0)
        return 0.0;
    const NetLevel level = topo_->levelOf(ranks);
    const double bw =
        topo_->bandwidth(level) * 1e9 * kBandwidthEfficiency;
    const double lat = topo_->latency(level);
    const double rounds = std::ceil(std::log2(static_cast<double>(p)));
    // Pipelined binomial tree: one full payload transfer plus a latency
    // term per tree level.
    return static_cast<double>(bytes) / bw + rounds * lat;
}

double
CollectiveModel::gatherTo(const std::vector<std::int64_t> &ranks,
                          std::int64_t bytes_per_rank) const
{
    LLM4D_ASSERT(!ranks.empty(), "empty collective group");
    LLM4D_ASSERT(bytes_per_rank >= 0, "negative collective size");
    const auto p = static_cast<std::int64_t>(ranks.size());
    if (p == 1 || bytes_per_rank == 0)
        return 0.0;
    return gatherToAtLevel(topo_->levelOf(ranks), p, bytes_per_rank);
}

double
CollectiveModel::gatherToAtLevel(NetLevel level, std::int64_t group_size,
                                 std::int64_t bytes_per_rank) const
{
    LLM4D_ASSERT(group_size >= 1, "empty collective group");
    LLM4D_ASSERT(bytes_per_rank >= 0, "negative collective size");
    if (group_size == 1 || bytes_per_rank == 0)
        return 0.0;
    const double bw =
        topo_->bandwidth(level) * 1e9 * kBandwidthEfficiency;
    const double lat = topo_->latency(level);
    // All senders funnel into the root's single ingress path, so the
    // (p-1) shards serialize on bandwidth; latency pipelines.
    const double steps = static_cast<double>(group_size - 1);
    return steps * static_cast<double>(bytes_per_rank) / bw + lat;
}

double
CollectiveModel::p2p(std::int64_t src, std::int64_t dst,
                     std::int64_t bytes) const
{
    LLM4D_ASSERT(bytes >= 0, "negative transfer size");
    if (src == dst || bytes == 0)
        return 0.0;
    const NetLevel level = topo_->levelBetween(src, dst);
    const double bw =
        topo_->bandwidth(level) * 1e9 * kBandwidthEfficiency;
    return static_cast<double>(bytes) / bw + topo_->latency(level);
}

double
CollectiveModel::achievedBusBandwidth(std::int64_t participants,
                                      std::int64_t bytes_per_rank,
                                      double seconds)
{
    LLM4D_ASSERT(participants >= 1 && seconds > 0.0,
                 "invalid bus bandwidth inputs");
    const double moved = static_cast<double>(participants - 1) *
                         static_cast<double>(bytes_per_rank);
    return moved / seconds / 1e9;
}

} // namespace llm4d
