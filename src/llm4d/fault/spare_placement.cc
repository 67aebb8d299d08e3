#include "llm4d/fault/spare_placement.h"

#include "llm4d/simcore/common.h"

namespace llm4d {

const char *
toString(SparePlacementPolicy policy)
{
    switch (policy) {
      case SparePlacementPolicy::CentralPool:
        return "central-pool";
      case SparePlacementPolicy::PerPodReserve:
        return "per-pod-reserve";
      case SparePlacementPolicy::Adaptive:
        return "adaptive";
    }
    LLM4D_PANIC("unreachable spare placement policy");
}

SparePool::SparePool(const ClusterSpec &cluster,
                     SparePlacementPolicy policy, std::int64_t spare_hosts)
    : policy_(policy), nodes_per_pod_(cluster.nodes_per_pod),
      num_nodes_(cluster.num_nodes)
{
    LLM4D_CHECK(nodes_per_pod_ > 0, "need nodes per pod");
    LLM4D_CHECK(num_nodes_ > 0, "need at least one node");
    LLM4D_CHECK(spare_hosts >= 0, "spare pool size cannot be negative");
    reserve_.assign(static_cast<std::size_t>(numPods()) + 1, 0);
    claims_.assign(reserve_.size(), 0);
    if (policy_ == SparePlacementPolicy::CentralPool) {
        reserve_.back() = spare_hosts;
        return;
    }
    // PerPodReserve / Adaptive both start spread round-robin; they
    // differ only in where refills go. Remainder goes to the
    // lowest-index pods so the distribution is deterministic.
    const std::int64_t pods = numPods();
    for (std::int64_t p = 0; p < pods; ++p)
        reserve_[static_cast<std::size_t>(p)] =
            spare_hosts / pods + (p < spare_hosts % pods ? 1 : 0);
}

std::int64_t
SparePool::numPods() const
{
    return ceilDiv(num_nodes_, nodes_per_pod_);
}

std::int64_t
SparePool::podOfHost(std::int64_t host) const
{
    LLM4D_ASSERT(host >= 0 && host < num_nodes_,
                 "host " << host << " outside cluster of " << num_nodes_);
    return host / nodes_per_pod_;
}

std::int64_t
SparePool::available() const
{
    std::int64_t total = 0;
    for (const std::int64_t n : reserve_)
        total += n;
    return total;
}

std::int64_t
SparePool::availableInPod(std::int64_t pod) const
{
    LLM4D_ASSERT(pod >= 0 &&
                     pod < static_cast<std::int64_t>(reserve_.size()),
                 "pod " << pod << " outside " << reserve_.size() << " pods");
    return reserve_[static_cast<std::size_t>(pod)];
}

std::optional<SpareClaim>
SparePool::claimNearest(std::int64_t victim_host)
{
    const std::int64_t victim_pod = podOfHost(victim_host);
    ++claims_[static_cast<std::size_t>(victim_pod)];
    SpareClaim claim;
    if (reserve_[static_cast<std::size_t>(victim_pod)] > 0) {
        --reserve_[static_cast<std::size_t>(victim_pod)];
        claim.spare_pod = victim_pod;
        claim.pod_local = true;
        claim.path = NetLevel::Pod;
        return claim;
    }
    // Cross-pod fallback: the most-stocked pod donates (lowest index on
    // ties; the central pod sits at the highest index, so job pods win
    // ties against it).
    std::int64_t best = -1;
    for (std::size_t p = 0; p < reserve_.size(); ++p) {
        if (reserve_[p] > 0 &&
            (best < 0 ||
             reserve_[p] > reserve_[static_cast<std::size_t>(best)]))
            best = static_cast<std::int64_t>(p);
    }
    if (best < 0)
        return std::nullopt;
    --reserve_[static_cast<std::size_t>(best)];
    claim.spare_pod = best;
    claim.pod_local = false;
    claim.path = NetLevel::Spine;
    return claim;
}

void
SparePool::refill()
{
    if (policy_ == SparePlacementPolicy::CentralPool) {
        ++reserve_.back();
        return;
    }
    const std::int64_t pods = numPods();
    std::int64_t target = 0;
    if (policy_ == SparePlacementPolicy::Adaptive) {
        // Park the returning host where failures have been landing.
        for (std::int64_t p = 1; p < pods; ++p)
            if (claims_[static_cast<std::size_t>(p)] >
                claims_[static_cast<std::size_t>(target)])
                target = p;
    } else {
        for (std::int64_t p = 1; p < pods; ++p)
            if (reserve_[static_cast<std::size_t>(p)] <
                reserve_[static_cast<std::size_t>(target)])
                target = p;
    }
    ++reserve_[static_cast<std::size_t>(target)];
}

} // namespace llm4d
