#include "llm4d/fault/fault_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "llm4d/simcore/time.h"

namespace llm4d {
namespace {

ClusterSpec
production16k()
{
    return ClusterSpec::llama3Production(16384);
}

std::vector<FaultEvent>
drain(FaultModel &model, int n)
{
    std::vector<FaultEvent> events;
    events.reserve(n);
    for (int i = 0; i < n; ++i)
        events.push_back(model.next());
    return events;
}

TEST(FaultModel, TimelineIsDeterministic)
{
    FaultModel a(production16k(), FaultTuning{}, 7);
    FaultModel b(production16k(), FaultTuning{}, 7);
    const auto ea = drain(a, 200);
    const auto eb = drain(b, 200);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(ea[i].when, eb[i].when) << "event " << i;
        EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
        EXPECT_EQ(ea[i].component, eb[i].component) << "event " << i;
        EXPECT_EQ(ea[i].severity, eb[i].severity) << "event " << i;
        EXPECT_EQ(ea[i].duration, eb[i].duration) << "event " << i;
    }
}

TEST(FaultModel, DifferentSeedsDiffer)
{
    FaultModel a(production16k(), FaultTuning{}, 7);
    FaultModel b(production16k(), FaultTuning{}, 8);
    const auto ea = drain(a, 20);
    const auto eb = drain(b, 20);
    int same = 0;
    for (int i = 0; i < 20; ++i)
        same += ea[i].when == eb[i].when; // lint:allow(time-eq)
    EXPECT_LT(same, 20);
}

TEST(FaultModel, EventsAreTimeOrderedAndValid)
{
    const ClusterSpec cluster = production16k();
    FaultModel model(cluster, FaultTuning{}, 3);
    const FaultTuning tuning;
    Time prev = 0;
    for (const FaultEvent &ev : drain(model, 500)) {
        EXPECT_GE(ev.when, prev);
        prev = ev.when;
        switch (ev.kind) {
          case FaultKind::GpuFatal:
          case FaultKind::StragglerOnset:
          case FaultKind::LinkFlap:
            EXPECT_GE(ev.component, 0);
            EXPECT_LT(ev.component, cluster.numGpus());
            break;
          case FaultKind::HostCrash:
            EXPECT_GE(ev.component, 0);
            EXPECT_LT(ev.component, cluster.num_nodes);
            break;
        }
        if (ev.kind == FaultKind::StragglerOnset) {
            EXPECT_GE(ev.severity, tuning.straggler_speed_lo);
            EXPECT_LE(ev.severity, tuning.straggler_speed_hi);
        } else if (ev.kind == FaultKind::LinkFlap) {
            EXPECT_GE(ev.severity, tuning.flap_capacity_lo);
            EXPECT_LE(ev.severity, tuning.flap_capacity_hi);
            EXPECT_GT(ev.duration, 0);
        } else {
            EXPECT_TRUE(ev.fatal());
            EXPECT_DOUBLE_EQ(ev.severity, 1.0);
            EXPECT_EQ(ev.duration, 0);
        }
    }
}

TEST(FaultModel, RateMatchesClusterSpec)
{
    const ClusterSpec cluster = production16k();
    FaultModel model(cluster, FaultTuning{}, 1);
    EXPECT_DOUBLE_EQ(model.eventsPerHour(), cluster.failuresPerHour());
    EXPECT_FALSE(model.silent());
    // Llama 3 production experience: ~3h between interruptions at 16K.
    EXPECT_GT(cluster.clusterMtbfHours(), 1.5);
    EXPECT_LT(cluster.clusterMtbfHours(), 5.0);
}

TEST(FaultModel, EmpiricalInterArrivalMatchesMtbf)
{
    FaultModel model(production16k(), FaultTuning{}, 11);
    const int n = 4000;
    const auto events = drain(model, n);
    const double mean_s = timeToSeconds(events.back().when) / n;
    EXPECT_NEAR(mean_s, model.mtbfSeconds(), 0.1 * model.mtbfSeconds());
}

TEST(FaultModel, DisabledClassesAreSilent)
{
    ClusterSpec cluster = production16k();
    cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cluster.node.gpu.straggler_mtbf_hours = -1.0;
    cluster.node.host_mtbf_hours = 0.0;
    cluster.node.nic_flap_mtbf_hours = 0.0;
    FaultModel model(cluster, FaultTuning{}, 1);
    EXPECT_TRUE(model.silent());
    EXPECT_DOUBLE_EQ(model.eventsPerHour(), 0.0);
}

TEST(FaultModel, SingleEnabledClassDominates)
{
    ClusterSpec cluster = production16k();
    cluster.node.gpu.fatal_mtbf_hours = 0.0;
    cluster.node.host_mtbf_hours = 0.0;
    cluster.node.nic_flap_mtbf_hours = 0.0;
    FaultModel model(cluster, FaultTuning{}, 5);
    for (const FaultEvent &ev : drain(model, 100))
        EXPECT_EQ(ev.kind, FaultKind::StragglerOnset);
}

TEST(FaultModel, FatalShareTracksRates)
{
    // ~59% of Llama 3 interruptions were GPU-attributed; with the default
    // MTBFs the fatal share of all events lands near the configured ratio.
    const ClusterSpec cluster = production16k();
    FaultModel model(cluster, FaultTuning{}, 13);
    int fatal = 0;
    const int n = 4000;
    for (const FaultEvent &ev : drain(model, n))
        fatal += ev.fatal();
    const double expect =
        cluster.fatalFailuresPerHour() / cluster.failuresPerHour();
    EXPECT_NEAR(static_cast<double>(fatal) / n, expect, 0.05);
}

TEST(FaultModel, KindNamesAreStable)
{
    EXPECT_STREQ(toString(FaultKind::GpuFatal), "GpuFatal");
    EXPECT_STREQ(toString(FaultKind::HostCrash), "HostCrash");
    EXPECT_STREQ(toString(FaultKind::LinkFlap), "LinkFlap");
    EXPECT_STREQ(toString(FaultKind::StragglerOnset), "StragglerOnset");
    FaultModel model(production16k(), FaultTuning{}, 1);
    EXPECT_FALSE(model.next().str().empty());
}

TEST(FaultModel, KindNamesAreDistinct)
{
    std::set<std::string> kinds;
    for (int i = 0; i < kNumFaultKinds; ++i)
        kinds.insert(toString(static_cast<FaultKind>(i)));
    EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kNumFaultKinds));
    EXPECT_FALSE(kinds.contains(""));
    std::set<std::string> radii;
    for (int i = 0; i < kNumBlastRadii; ++i)
        radii.insert(toString(static_cast<BlastRadius>(i)));
    EXPECT_EQ(radii.size(), static_cast<std::size_t>(kNumBlastRadii));
    EXPECT_FALSE(radii.contains(""));
}

TEST(FaultModel, BlastRadiusMatchesFailureDomains)
{
    // A dead GPU leaves its host's HBM peer mirrors and NVMe copies
    // intact; a host crash takes both local tiers with it; transient
    // faults destroy no checkpoint state at all.
    EXPECT_EQ(faultBlastRadius(FaultKind::GpuFatal), BlastRadius::Gpu);
    EXPECT_EQ(faultBlastRadius(FaultKind::HostCrash), BlastRadius::Host);
    EXPECT_EQ(faultBlastRadius(FaultKind::LinkFlap), BlastRadius::None);
    EXPECT_EQ(faultBlastRadius(FaultKind::StragglerOnset),
              BlastRadius::None);
    for (int i = 0; i < kNumFaultKinds; ++i) {
        const auto radius = faultBlastRadius(static_cast<FaultKind>(i));
        EXPECT_GE(static_cast<int>(radius), 0);
        EXPECT_LT(static_cast<int>(radius), kNumBlastRadii);
    }
    EXPECT_STREQ(toString(BlastRadius::None), "None");
    EXPECT_STREQ(toString(BlastRadius::Gpu), "Gpu");
    EXPECT_STREQ(toString(BlastRadius::Host), "Host");
}

FaultTuning
correlatedTuning()
{
    FaultTuning tuning;
    tuning.colocation.enabled = true;
    tuning.colocation.heat_per_onset = 2.0;
    tuning.colocation.max_heat = 8.0;
    tuning.colocation.hazard_gain = 10.0;
    // Short against cold-pod seeding (~15 min at the 4000 h MTBF used
    // below), long against within-burst gaps: one pod runs hot at a
    // time rather than the whole fleet saturating at max_heat.
    tuning.colocation.heat_half_life_s = 180.0;
    return tuning;
}

TEST(FaultModel, CorrelationOffIsBitIdenticalToLegacy)
{
    // colocation.enabled = false must not consume a single extra random
    // number, whatever the rest of the colocation tuning says: the
    // independent timeline is the pre-correlation contract.
    FaultTuning off = correlatedTuning();
    off.colocation.enabled = false;
    off.colocation.hazard_gain = 99.0;
    off.colocation.heat_half_life_s = 1.0;
    FaultModel legacy(production16k(), FaultTuning{}, 7);
    FaultModel disabled(production16k(), off, 7);
    const auto ea = drain(legacy, 300);
    const auto eb = drain(disabled, 300);
    for (int i = 0; i < 300; ++i) {
        EXPECT_EQ(ea[i].when, eb[i].when) << "event " << i;
        EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
        EXPECT_EQ(ea[i].component, eb[i].component) << "event " << i;
        EXPECT_EQ(ea[i].severity, eb[i].severity) << "event " << i;
        EXPECT_EQ(ea[i].duration, eb[i].duration) << "event " << i;
    }
}

TEST(FaultModel, CorrelationLeavesOtherClassesUntouched)
{
    // The pod-heat model runs on its own registered streams (0xc0..),
    // so turning it on reroutes only straggler onsets: the k-th fatal,
    // host-crash, and link-flap event is bit-identical in both arms.
    // This is the CRN property planGoodput's correlation axis rests on.
    FaultModel indep(production16k(), FaultTuning{}, 7);
    FaultModel corr(production16k(), correlatedTuning(), 7);
    std::vector<FaultEvent> ea, eb;
    for (const FaultEvent &ev : drain(indep, 600)) {
        if (ev.kind != FaultKind::StragglerOnset)
            ea.push_back(ev);
    }
    for (const FaultEvent &ev : drain(corr, 600)) {
        if (ev.kind != FaultKind::StragglerOnset)
            eb.push_back(ev);
    }
    const std::size_t n = std::min(ea.size(), eb.size());
    ASSERT_GT(n, 100u);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ea[i].when, eb[i].when) << "event " << i;
        EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
        EXPECT_EQ(ea[i].component, eb[i].component) << "event " << i;
        EXPECT_EQ(ea[i].severity, eb[i].severity) << "event " << i;
    }
}

TEST(FaultModel, CorrelatedStragglersStayValidAndCluster)
{
    // A worn fleet (straggler MTBF 4000h -> ~4 onsets/h cluster-wide)
    // keeps inter-onset gaps well inside the heat half-life, so the
    // correlation has something to correlate.
    ClusterSpec cluster = production16k();
    cluster.node.gpu.straggler_mtbf_hours = 4000.0;
    const FaultTuning tuning = correlatedTuning();
    FaultModel model(cluster, tuning, 19);
    ASSERT_NE(model.podHeat(), nullptr);
    std::vector<std::int64_t> pods;
    Time prev = 0;
    for (const FaultEvent &ev : drain(model, 3000)) {
        EXPECT_GE(ev.when, prev);
        prev = ev.when;
        if (ev.kind != FaultKind::StragglerOnset)
            continue;
        EXPECT_GE(ev.component, 0);
        EXPECT_LT(ev.component, cluster.numGpus());
        EXPECT_GE(ev.severity, tuning.straggler_speed_lo);
        EXPECT_LE(ev.severity, tuning.straggler_speed_hi);
        pods.push_back(model.podHeat()->podOf(ev.component));
    }
    ASSERT_GT(pods.size(), 200u);
    int repeats = 0;
    for (std::size_t i = 1; i < pods.size(); ++i)
        repeats += pods[i] == pods[i - 1];
    // Independent onsets revisit their predecessor's pod with the
    // sum-of-squared-pod-shares probability (~18% at 16K); heat makes
    // successive onsets pile into the same pod (empirically ~0.6 here).
    EXPECT_GT(static_cast<double>(repeats) /
                  static_cast<double>(pods.size() - 1),
              0.30);
}

TEST(FaultModel, CorrelationOffKeepsPodHeatUnbuilt)
{
    FaultModel model(production16k(), FaultTuning{}, 1);
    EXPECT_EQ(model.podHeat(), nullptr);
    FaultModel corr(production16k(), correlatedTuning(), 1);
    EXPECT_NE(corr.podHeat(), nullptr);
}

TEST(FaultModelDeathTest, RejectsBadTuning)
{
    FaultTuning bad;
    bad.straggler_speed_lo = 0.0;
    EXPECT_DEATH(bad.validate(), "straggler");
    FaultTuning inverted;
    inverted.flap_capacity_lo = 0.7;
    inverted.flap_capacity_hi = 0.2;
    EXPECT_DEATH(inverted.validate(), "flap");
    FaultTuning no_duration;
    no_duration.flap_duration_mean_s = 0.0;
    EXPECT_DEATH(no_duration.validate(), "duration");
    FaultTuning bad_heat;
    bad_heat.colocation.heat_per_onset = 0.0;
    EXPECT_DEATH(bad_heat.validate(), "heat");
}

} // namespace
} // namespace llm4d
