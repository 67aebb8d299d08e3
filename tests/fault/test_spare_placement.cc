#include "llm4d/fault/spare_placement.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace llm4d {
namespace {

/** Production 16K-GPU cluster: 2048 nodes, 384 per pod -> 6 pods. */
ClusterSpec
production16k()
{
    return ClusterSpec::llama3Production(16384);
}

/** First host index of pod @p pod on the production cluster. */
std::int64_t
hostInPod(std::int64_t pod)
{
    return pod * 384;
}

TEST(SparePlacement, EnumTextIsDistinct)
{
    EXPECT_STREQ(toString(SparePlacementPolicy::CentralPool),
                 "central-pool");
    EXPECT_STREQ(toString(SparePlacementPolicy::PerPodReserve),
                 "per-pod-reserve");
    EXPECT_STREQ(toString(SparePlacementPolicy::Adaptive), "adaptive");
    std::set<std::string> names;
    for (int i = 0; i < kNumSparePlacementPolicies; ++i)
        names.insert(toString(static_cast<SparePlacementPolicy>(i)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(kNumSparePlacementPolicies));
    EXPECT_FALSE(names.contains(""));
}

TEST(SparePlacement, PodGeometryMatchesTheCluster)
{
    const SparePool pool(production16k(),
                         SparePlacementPolicy::CentralPool, 4);
    EXPECT_EQ(pool.numPods(), 6);
    EXPECT_EQ(pool.centralPod(), 6);
    EXPECT_EQ(pool.podOfHost(0), 0);
    EXPECT_EQ(pool.podOfHost(383), 0);
    EXPECT_EQ(pool.podOfHost(384), 1);
    EXPECT_EQ(pool.podOfHost(2047), 5);
}

TEST(SparePlacement, CentralPoolParksEverySpareInTheDedicatedPod)
{
    SparePool pool(production16k(), SparePlacementPolicy::CentralPool, 6);
    EXPECT_EQ(pool.available(), 6);
    EXPECT_EQ(pool.availableInPod(pool.centralPod()), 6);
    for (std::int64_t p = 0; p < pool.numPods(); ++p)
        EXPECT_EQ(pool.availableInPod(p), 0);
    // Every claim is therefore cross-pod, over the spine.
    const auto claim = pool.claimNearest(hostInPod(2));
    ASSERT_TRUE(claim.has_value());
    EXPECT_FALSE(claim->pod_local);
    EXPECT_EQ(claim->spare_pod, pool.centralPod());
    EXPECT_EQ(claim->path, NetLevel::Spine);
    EXPECT_EQ(pool.available(), 5);
}

TEST(SparePlacement, PerPodReserveSpreadsRoundRobin)
{
    SparePool even(production16k(), SparePlacementPolicy::PerPodReserve,
                   6);
    for (std::int64_t p = 0; p < even.numPods(); ++p)
        EXPECT_EQ(even.availableInPod(p), 1);
    EXPECT_EQ(even.availableInPod(even.centralPod()), 0);
    // Remainder lands on the lowest-index pods.
    SparePool uneven(production16k(),
                     SparePlacementPolicy::PerPodReserve, 8);
    EXPECT_EQ(uneven.availableInPod(0), 2);
    EXPECT_EQ(uneven.availableInPod(1), 2);
    for (std::int64_t p = 2; p < uneven.numPods(); ++p)
        EXPECT_EQ(uneven.availableInPod(p), 1);
}

TEST(SparePlacement, ClaimPrefersTheVictimsOwnPod)
{
    SparePool pool(production16k(), SparePlacementPolicy::PerPodReserve,
                   6);
    const auto claim = pool.claimNearest(hostInPod(3) + 17);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(claim->pod_local);
    EXPECT_EQ(claim->spare_pod, 3);
    EXPECT_EQ(claim->path, NetLevel::Pod);
    EXPECT_EQ(pool.availableInPod(3), 0);
    EXPECT_EQ(pool.available(), 5);
}

TEST(SparePlacement, CrossPodFallbackDrainsTheMostStockedPod)
{
    SparePool pool(production16k(), SparePlacementPolicy::PerPodReserve,
                   8); // pods 0 and 1 hold 2; pods 2..5 hold 1
    // Drain pod 2's own reserve, then force two cross-pod claims.
    ASSERT_TRUE(pool.claimNearest(hostInPod(2))->pod_local);
    const auto first = pool.claimNearest(hostInPod(2));
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(first->pod_local);
    EXPECT_EQ(first->spare_pod, 0); // most stocked, lowest index on ties
    EXPECT_EQ(first->path, NetLevel::Spine);
    const auto second = pool.claimNearest(hostInPod(2));
    ASSERT_TRUE(second.has_value());
    EXPECT_FALSE(second->pod_local);
    EXPECT_EQ(second->spare_pod, 1); // pod 1 (2 left) now out-stocks 0
}

TEST(SparePlacement, DryPoolReturnsNullopt)
{
    SparePool pool(production16k(), SparePlacementPolicy::PerPodReserve,
                   1);
    ASSERT_TRUE(pool.claimNearest(hostInPod(0)).has_value());
    EXPECT_EQ(pool.available(), 0);
    EXPECT_EQ(pool.claimNearest(hostInPod(0)), std::nullopt);
    EXPECT_EQ(pool.claimNearest(hostInPod(5)), std::nullopt);
}

TEST(SparePlacement, PerPodRefillGoesToTheEmptiestPod)
{
    SparePool pool(production16k(), SparePlacementPolicy::PerPodReserve,
                   6);
    ASSERT_TRUE(pool.claimNearest(hostInPod(4))->pod_local);
    EXPECT_EQ(pool.availableInPod(4), 0);
    pool.refill();
    EXPECT_EQ(pool.availableInPod(4), 1);
    EXPECT_EQ(pool.available(), 6);
}

TEST(SparePlacement, AdaptiveRefillTracksWhereFailuresLand)
{
    SparePool pool(production16k(), SparePlacementPolicy::Adaptive, 0);
    // Claims are charged as wear even when the pool is dry.
    EXPECT_EQ(pool.claimNearest(hostInPod(3)), std::nullopt);
    EXPECT_EQ(pool.claimNearest(hostInPod(3)), std::nullopt);
    EXPECT_EQ(pool.claimNearest(hostInPod(1)), std::nullopt);
    pool.refill();
    EXPECT_EQ(pool.availableInPod(3), 1); // the worn pod, not pod 0
    pool.refill();
    EXPECT_EQ(pool.availableInPod(3), 2);
}

TEST(SparePlacement, CentralRefillReturnsToTheDedicatedPod)
{
    SparePool pool(production16k(), SparePlacementPolicy::CentralPool, 1);
    ASSERT_TRUE(pool.claimNearest(hostInPod(0)).has_value());
    pool.refill();
    EXPECT_EQ(pool.availableInPod(pool.centralPod()), 1);
    for (std::int64_t p = 0; p < pool.numPods(); ++p)
        EXPECT_EQ(pool.availableInPod(p), 0);
}

TEST(SparePlacement, ClaimsAreDeterministic)
{
    // Same claim history -> same answers, bit for bit: recovery must
    // stay a pure function of (cluster, policy, fault seed).
    const auto replay = [](SparePlacementPolicy policy) {
        SparePool pool(production16k(), policy, 5);
        std::vector<std::int64_t> pods;
        for (const std::int64_t victim : {0L, 700L, 700L, 1900L, 100L}) {
            const auto claim = pool.claimNearest(victim);
            pods.push_back(claim ? claim->spare_pod : -1);
        }
        return pods;
    };
    for (int i = 0; i < kNumSparePlacementPolicies; ++i) {
        const auto policy = static_cast<SparePlacementPolicy>(i);
        EXPECT_EQ(replay(policy), replay(policy));
    }
}

TEST(SparePlacementDeathTest, RejectsBadGeometry)
{
    EXPECT_DEATH(SparePool(production16k(),
                           SparePlacementPolicy::PerPodReserve, -1),
                 "negative");
    const SparePool pool(production16k(),
                         SparePlacementPolicy::CentralPool, 1);
    EXPECT_DEATH((void)pool.podOfHost(-1), "outside");
    EXPECT_DEATH((void)pool.podOfHost(1 << 20), "outside");
}

} // namespace
} // namespace llm4d
