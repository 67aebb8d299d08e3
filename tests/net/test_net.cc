#include "llm4d/net/collective.h"
#include "llm4d/net/topology.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

namespace llm4d {
namespace {

class NetTest : public ::testing::Test
{
  protected:
    ClusterSpec spec = ClusterSpec::llama3Production(16384);
    Topology topo{spec};
    CollectiveModel coll{topo};

    std::vector<std::int64_t>
    ranks(std::int64_t first, std::int64_t count, std::int64_t stride = 1)
    {
        std::vector<std::int64_t> r(static_cast<std::size_t>(count));
        for (std::int64_t i = 0; i < count; ++i)
            r[static_cast<std::size_t>(i)] = first + i * stride;
        return r;
    }
};

TEST_F(NetTest, RankToNodeMapping)
{
    EXPECT_EQ(topo.nodeOf(0), 0);
    EXPECT_EQ(topo.nodeOf(7), 0);
    EXPECT_EQ(topo.nodeOf(8), 1);
    EXPECT_EQ(topo.localRank(13), 5);
    // Pods hold 384 nodes = 3072 GPUs.
    EXPECT_EQ(topo.podOf(3071), 0);
    EXPECT_EQ(topo.podOf(3072), 1);
}

TEST_F(NetTest, LevelClassification)
{
    EXPECT_EQ(topo.levelBetween(3, 3), NetLevel::Self);
    EXPECT_EQ(topo.levelBetween(0, 7), NetLevel::NvLink);
    EXPECT_EQ(topo.levelBetween(0, 8), NetLevel::Pod);
    EXPECT_EQ(topo.levelBetween(0, 3072), NetLevel::Spine);
    EXPECT_EQ(topo.levelOf(ranks(0, 8)), NetLevel::NvLink);
    EXPECT_EQ(topo.levelOf(ranks(0, 16)), NetLevel::Pod);
    EXPECT_EQ(topo.levelOf(ranks(0, 2, 3072)), NetLevel::Spine);
}

TEST_F(NetTest, BandwidthHierarchyIsMonotone)
{
    EXPECT_GT(topo.bandwidth(NetLevel::NvLink),
              topo.bandwidth(NetLevel::Pod));
    EXPECT_GT(topo.bandwidth(NetLevel::Pod),
              topo.bandwidth(NetLevel::Spine));
    // 1:7 oversubscription above the pod.
    EXPECT_DOUBLE_EQ(topo.bandwidth(NetLevel::Spine),
                     topo.bandwidth(NetLevel::Pod) / 7.0);
}

TEST_F(NetTest, AllGatherBandwidthTermDominatesLargeMessages)
{
    // 8-rank NVLink all-gather of 64 MiB shards: time ~
    // 7*S/(450 GB/s * efficiency).
    const std::int64_t shard = 64LL << 20;
    const double t = coll.allGather(ranks(0, 8), shard);
    const double ideal =
        7.0 * static_cast<double>(shard) /
        (450.0 * 1e9 * CollectiveModel::kBandwidthEfficiency);
    EXPECT_GT(t, ideal);
    EXPECT_LT(t, ideal * 1.1);
}

TEST_F(NetTest, AllGatherLatencyTermDominatesSmallMessages)
{
    const double t = coll.allGather(ranks(0, 8), 256);
    EXPECT_GE(t, 7.0 * 2.0e-6); // 7 hops of 2us NVLink latency
    EXPECT_LT(t, 7.0 * 3.0e-6);
}

TEST_F(NetTest, CrossNodeGroupBoundByNic)
{
    // Same shard, 8 ranks spread one-per-node: NIC (50 GB/s) is the pipe.
    const std::int64_t shard = 64LL << 20;
    const double intra = coll.allGather(ranks(0, 8), shard);
    const double inter = coll.allGather(ranks(0, 8, 8), shard);
    EXPECT_GT(inter, intra * 7.0);
}

TEST_F(NetTest, SingleRankCollectivesAreFree)
{
    EXPECT_DOUBLE_EQ(coll.allGather(ranks(0, 1), 1 << 20), 0.0);
    EXPECT_DOUBLE_EQ(coll.allReduce(ranks(0, 1), 1 << 20), 0.0);
    EXPECT_DOUBLE_EQ(coll.p2p(3, 3, 1 << 20), 0.0);
}

TEST_F(NetTest, ReduceScatterMirrorsAllGather)
{
    const auto group = ranks(0, 16);
    EXPECT_DOUBLE_EQ(coll.reduceScatter(group, 1 << 20),
                     coll.allGather(group, 1 << 20));
}

TEST_F(NetTest, AllReduceIsTwiceTheHalfOps)
{
    const auto group = ranks(0, 8);
    const std::int64_t bytes = 8LL << 20;
    const double ar = coll.allReduce(group, bytes);
    const double rs = coll.reduceScatter(group, bytes / 8);
    EXPECT_NEAR(ar, 2.0 * rs, 1e-9);
}

TEST_F(NetTest, P2PIntraVsInterNode)
{
    const std::int64_t bytes = 16LL << 20;
    const double nv = coll.p2p(0, 1, bytes);
    const double net = coll.p2p(0, 8, bytes);
    EXPECT_LT(nv, net);
    // NIC path ~ bytes / (50 GB/s * efficiency).
    EXPECT_NEAR(net,
                static_cast<double>(bytes) /
                        (50.0 * 1e9 *
                         CollectiveModel::kBandwidthEfficiency) +
                    8e-6,
                1e-6);
}

TEST_F(NetTest, SpineOversubscriptionSlowsCrossPodTraffic)
{
    const std::int64_t bytes = 16LL << 20;
    const double pod = coll.p2p(0, 8, bytes);
    const double spine = coll.p2p(0, 3072 * 2, bytes);
    EXPECT_GT(spine, pod * 5.0);
}

TEST_F(NetTest, BroadcastCostsOnePayloadPlusTreeLatency)
{
    const std::int64_t bytes = 32LL << 20;
    const double t = coll.broadcast(ranks(0, 8), bytes);
    const double payload =
        static_cast<double>(bytes) /
        (450.0 * 1e9 * CollectiveModel::kBandwidthEfficiency);
    EXPECT_GT(t, payload);
    EXPECT_LT(t, payload + 3.0 * 2.1e-6 + 1e-9);
}

TEST_F(NetTest, AchievedBusBandwidthReporting)
{
    // 8 ranks, 1 GiB shards, 1 second -> 7 GiB/s moved per rank.
    const double bw =
        CollectiveModel::achievedBusBandwidth(8, 1LL << 30, 1.0);
    EXPECT_NEAR(bw, 7.0 * 1.0737, 0.01);
}

TEST_F(NetTest, AllGatherScalesLinearlyInShardSize)
{
    // Large shards so the bandwidth term dominates the per-hop latency.
    const auto group = ranks(0, 4);
    const double t1 = coll.allGather(group, 64LL << 20);
    const double t2 = coll.allGather(group, 256LL << 20);
    EXPECT_GT(t2 / t1, 3.5);
    EXPECT_LT(t2 / t1, 4.0 + 1e-6);
}

TEST_F(NetTest, GatherSerializesSendersOnRootIngress)
{
    // The re-shard primitive of elastic recovery: (p-1) peer shards
    // funnel into one root, so payloads serialize on its ingress link.
    const std::int64_t bytes = 64LL << 20;
    const double t = coll.gatherTo(ranks(0, 8), bytes);
    const double payload =
        7.0 * static_cast<double>(bytes) /
        (450.0 * 1e9 * CollectiveModel::kBandwidthEfficiency);
    EXPECT_GT(t, payload);
    EXPECT_LT(t, payload + 1e-4);
}

TEST_F(NetTest, LevelOfEdgeCases)
{
    // A single rank talks only to itself.
    EXPECT_EQ(topo.levelOf(ranks(5, 1)), NetLevel::Self);
    EXPECT_EQ(topo.levelBetween(16383, 16383), NetLevel::Self);
    // The widest possible span: first and last GPU of the cluster.
    EXPECT_EQ(topo.levelOf(ranks(0, 2, 16383)), NetLevel::Spine);
    EXPECT_EQ(topo.levelBetween(0, 16383), NetLevel::Spine);
    // Straddling the last host of pod 0 (GPUs 3064..3071) crosses the
    // pod boundary the moment one rank spills into pod 1...
    EXPECT_EQ(topo.levelOf(ranks(3064, 16)), NetLevel::Spine);
    // ...but staying inside that host is pure NVLink, and stopping at
    // the pod's last GPU is still pod-local RoCE.
    EXPECT_EQ(topo.levelOf(ranks(3064, 8)), NetLevel::NvLink);
    EXPECT_EQ(topo.levelOf(ranks(3056, 16)), NetLevel::Pod);
}

TEST_F(NetTest, NetLevelNamesAreDistinct)
{
    EXPECT_STREQ(toString(NetLevel::Self), "self");
    EXPECT_STREQ(toString(NetLevel::NvLink), "nvlink");
    EXPECT_STREQ(toString(NetLevel::Pod), "pod");
    EXPECT_STREQ(toString(NetLevel::Spine), "spine");
    std::set<std::string> names;
    for (int i = 0; i < kNumNetLevels; ++i)
        names.insert(toString(static_cast<NetLevel>(i)));
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumNetLevels));
    EXPECT_FALSE(names.contains(""));
}

TEST_F(NetTest, CollectiveKindNamesAreDistinct)
{
    EXPECT_STREQ(toString(CollectiveKind::AllGather), "all_gather");
    EXPECT_STREQ(toString(CollectiveKind::P2P), "p2p");
    std::set<std::string> names;
    for (int i = 0; i < kNumCollectiveKinds; ++i)
        names.insert(toString(static_cast<CollectiveKind>(i)));
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumCollectiveKinds));
    EXPECT_FALSE(names.contains(""));
}

TEST_F(NetTest, GatherToAtLevelMatchesTheRankListForm)
{
    // The placement-priced recovery path asks for a gather at an
    // explicit level instead of a rank list; both forms must agree
    // when the level matches the group's own span.
    const std::int64_t bytes = 48LL << 20;
    const auto pod_group = ranks(0, 16, 8);     // one rank per node
    const auto spine_group = ranks(0, 16, 1024); // spans pods
    EXPECT_DOUBLE_EQ(
        coll.gatherToAtLevel(topo.levelOf(pod_group), 16, bytes),
        coll.gatherTo(pod_group, bytes));
    EXPECT_DOUBLE_EQ(
        coll.gatherToAtLevel(topo.levelOf(spine_group), 16, bytes),
        coll.gatherTo(spine_group, bytes));
    // Forcing the same gather through the spine can only cost more.
    EXPECT_GT(coll.gatherToAtLevel(NetLevel::Spine, 16, bytes),
              coll.gatherToAtLevel(NetLevel::Pod, 16, bytes));
}

TEST_F(NetTest, GatherScalesWithGroupAndCrossesNodesSlower)
{
    const std::int64_t bytes = 16LL << 20;
    const double small = coll.gatherTo(ranks(0, 4), bytes);
    const double big = coll.gatherTo(ranks(0, 8), bytes);
    // (p-1) serialized sender payloads: 3 vs 7.
    EXPECT_NEAR(big / small, 7.0 / 3.0, 0.05);
    // A node-spanning group pays NIC, not NVLink, bandwidth.
    EXPECT_GT(coll.gatherTo(ranks(0, 8, 8), bytes), big);
    // Degenerate groups and empty payloads are free.
    EXPECT_DOUBLE_EQ(coll.gatherTo(ranks(0, 1), bytes), 0.0);
    EXPECT_DOUBLE_EQ(coll.gatherTo(ranks(0, 8), 0), 0.0);
}

} // namespace
} // namespace llm4d
