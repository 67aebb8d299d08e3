#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ops.h"
#include "outputs.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
using namespace llm4d;

namespace {

std::string
hex(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

/** Canonical text of every input field the generator sets, with exact
 *  (hex) doubles: equal keys mean equal inputs. */
std::string
inputKey(const OpInput &op)
{
    const auto job = [](const TrainJobConfig &j) {
        return j.par.str() + " seq=" + std::to_string(j.seq) +
               " sched=" + scheduleKindName(j.schedule) +
               " doc=" + hex(j.doc_mask_mean) +
               " seed=" + std::to_string(j.seed);
    };
    if (const auto *j = std::get_if<TrainJobConfig>(&op))
        return "step " + job(*j);
    if (const auto *r = std::get_if<TrainRunConfig>(&op)) {
        return "run " + job(r->job) +
               " steps=" + std::to_string(r->total_steps) +
               " seed=" + std::to_string(r->seed);
    }
    const auto &in = std::get<GoodputPlanInput>(op);
    const ClusterSpec &c = in.base.cluster;
    return "plan gpus=" + std::to_string(c.numGpus()) +
           " fatal=" + hex(c.node.gpu.fatal_mtbf_hours) +
           " straggler=" + hex(c.node.gpu.straggler_mtbf_hours) +
           " host=" + hex(c.node.host_mtbf_hours) +
           " flap=" + hex(c.node.nic_flap_mtbf_hours) +
           " batch=" + std::to_string(in.base.global_batch_tokens) +
           " horizon=" + std::to_string(in.horizon_steps) +
           " seed=" + std::to_string(in.fault_seed);
}

constexpr Workload kWorkloads[] = {Workload::StepSweep, Workload::RunLong,
                                   Workload::PlanWorn};

TEST(Workloads, NamesRoundTrip)
{
    for (const Workload w : kWorkloads)
        EXPECT_EQ(parseWorkload(toString(w)), w);
    EXPECT_FALSE(parseWorkload("hit").has_value());
}

TEST(Workloads, InputsArePureFunctionOfSeedAndIndex)
{
    for (const Workload w : kWorkloads) {
        for (std::int64_t i = 0; i < 2 * blockSize(w); ++i) {
            const std::string key = inputKey(makeOp(w, 7, i));
            EXPECT_EQ(key, inputKey(makeOp(w, 7, i))) << toString(w);
            EXPECT_NE(key, inputKey(makeOp(w, 8, i))) << toString(w);
            if (i > 0) {
                EXPECT_NE(key, inputKey(makeOp(w, 7, i - 1)));
            }
        }
    }
}

TEST(Workloads, EveryBlockWalksTheSameStrata)
{
    // Same position in two blocks, or under two seeds: same shape.
    const std::int64_t block = blockSize(Workload::StepSweep);
    for (std::int64_t i = 0; i < block; ++i) {
        const auto a = std::get<TrainJobConfig>(
            makeOp(Workload::StepSweep, 1, i));
        const auto b = std::get<TrainJobConfig>(
            makeOp(Workload::StepSweep, 2, i + block));
        EXPECT_EQ(a.par, b.par);
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.schedule, b.schedule);
        EXPECT_EQ(a.doc_mask_mean > 0.0, b.doc_mask_mean > 0.0);
    }
}

TrainJobConfig
smallJob()
{
    TrainJobConfig job;
    job.par = ParallelismConfig{8, 1, 4, 512};
    job.doc_mask_mean = 2048.0;
    return job;
}

TEST(Checks, StepCheckRejectsDoctoredReports)
{
    const TrainJobConfig job = smallJob();
    const TrainStepReport good = TrainSim(job).run();
    ASSERT_FALSE(checkStep(good, job).has_value());

    TrainStepReport bad = good;
    bad.step_seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(checkStep(bad, job).has_value());
    bad = good;
    bad.tflops_per_gpu = job.cluster.node.gpu.peak_bf16_tflops * 1.01;
    EXPECT_TRUE(checkStep(bad, job).has_value());
    bad = good;
    bad.bubble_ratio = 1.0;
    EXPECT_TRUE(checkStep(bad, job).has_value());
    bad = good;
    bad.exposed_cp_seconds = -1e-9;
    EXPECT_TRUE(checkStep(bad, job).has_value());
}

TEST(Checks, RunCheckRejectsDoctoredReports)
{
    TrainRunConfig cfg;
    cfg.total_steps = 3000;
    cfg.seed = 5;
    const TrainRunReport good = TrainRunSim(cfg).run();
    const std::int64_t dp = cfg.job.par.dp;
    ASSERT_FALSE(checkRun(good, cfg.total_steps, dp).has_value());

    TrainRunReport bad = good;
    bad.lost_seconds += 1e-6 * good.wall_seconds; // bucket skew
    EXPECT_TRUE(checkRun(bad, cfg.total_steps, dp).has_value());
    bad = good;
    bad.completed = false;
    EXPECT_TRUE(checkRun(bad, cfg.total_steps, dp).has_value());
    bad = good;
    bad.final_dp += 1;
    EXPECT_TRUE(checkRun(bad, cfg.total_steps, dp).has_value());
    bad = good;
    bad.goodput_tflops_per_gpu = good.base_tflops_per_gpu * 1.001;
    EXPECT_TRUE(checkRun(bad, cfg.total_steps, dp).has_value());
}

TEST(Checks, PlanCheckRejectsDoctoredRankings)
{
    GoodputPlanInput in =
        std::get<GoodputPlanInput>(makeOp(Workload::PlanWorn, 3, 0));
    // A small grid keeps the test fast; top_k 2 keeps two candidates.
    in.top_k = 2;
    in.horizon_steps = 400;
    in.placement_options = {SparePlacementPolicy::CentralPool};
    in.straggler_correlation_options = {false};
    in.hier_global_every_options = {0};
    in.partial_restart_options = {false};
    const std::vector<GoodputPlanCandidate> good = planGoodput(in);
    ASSERT_GE(good.size(), 2u);
    ASSERT_FALSE(checkPlan(good, in).has_value());

    std::vector<GoodputPlanCandidate> bad = good;
    ASSERT_GT(bad[0].goodput_tflops_per_gpu, bad.back().goodput_tflops_per_gpu);
    std::swap(bad.front(), bad.back()); // unsorted ranking
    EXPECT_TRUE(checkPlan(bad, in).has_value());

    bad = good;
    GoodputPlanCandidate &c = bad.front();
    const auto worst = std::min_element(
        c.sweep.begin(), c.sweep.end(), [](const auto &x, const auto &y) {
            return x.goodput_tflops_per_gpu < y.goodput_tflops_per_gpu;
        });
    ASSERT_LT(worst->goodput_tflops_per_gpu, c.goodput_tflops_per_gpu);
    c.best_point = static_cast<std::size_t>(worst - c.sweep.begin());
    c.goodput_tflops_per_gpu = c.best().goodput_tflops_per_gpu;
    EXPECT_TRUE(checkPlan(bad, in).has_value());

    bad = good;
    bad.back().sweep.back().report.degraded_seconds += 1.0; // bucket skew
    EXPECT_TRUE(checkPlan(bad, in).has_value());
}

TEST(Outputs, DigestSeesEveryBit)
{
    const TrainStepReport rep = TrainSim(smallJob()).run();
    Digest a, b, c;
    addTo(a, rep);
    addTo(b, rep);
    EXPECT_EQ(a.value(), b.value());
    TrainStepReport nudged = rep;
    nudged.pp_rank_memory.back().activations =
        std::nextafter(nudged.pp_rank_memory.back().activations, 0.0);
    addTo(c, nudged);
    EXPECT_NE(a.value(), c.value());
}

TEST(Stats, TailPercentileLeavesTenBeyond)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    const std::optional<Tail> t = tailPercentile(samples);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(t->percentile, 90.0);
    EXPECT_DOUBLE_EQ(t->value, 90.0);
    EXPECT_EQ(t->beyond, 10);

    samples.resize(11); // 100 .. 90
    const std::optional<Tail> small = tailPercentile(samples);
    ASSERT_TRUE(small.has_value());
    EXPECT_DOUBLE_EQ(small->percentile, 100.0 / 11.0);
    EXPECT_DOUBLE_EQ(small->value, 90.0);

    samples.resize(10);
    EXPECT_FALSE(tailPercentile(samples).has_value());
}

TEST(Stats, WindowedTailIsMedianOfWindowTails)
{
    // Three windows of 12 samples, each with 10 above its tail; the
    // window tails are 2, 30 and 4.
    std::vector<double> samples;
    for (const double tail : {2.0, 30.0, 4.0}) {
        samples.push_back(tail);
        samples.insert(samples.end(), 10, 1000.0);
        samples.push_back(0.0);
    }
    const std::optional<Tail> t = windowedTail(samples, 3);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(t->value, 4.0);
    EXPECT_DOUBLE_EQ(t->percentile, 100.0 * 2.0 / 12.0);
    EXPECT_EQ(t->beyond, 10);
    EXPECT_FALSE(windowedTail(samples, 4).has_value()); // 9 per window
    EXPECT_EQ(windowedTail(samples, 1)->value,
              tailPercentile(samples)->value);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Trace, SelfTimeExcludesChildren)
{
    Tracer t;
    {
        Tracer::Scope outer(&t, "outer", 0);
        Tracer::Scope inner(&t, "inner", 0);
    }
    { Tracer::Scope sibling(&t, "inner", 1); }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, -1);
    const auto layers = t.layers();
    EXPECT_EQ(layers.at("inner").calls, 2);
    const Tracer::LayerStats &outer = layers.at("outer");
    EXPECT_LE(outer.self_s, outer.busy_s);
    EXPECT_GE(outer.self_s, 0.0);

    std::ostringstream json;
    t.count("events", 3);
    t.writeChromeJson(json);
    EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.str().find("\"events\":3"), std::string::npos);
}

TEST(Ops, TracedAndUntracedOpsAgree)
{
    const OpInput op = makeOp(Workload::StepSweep, 4, 1);
    const OpResult plain = runOp(op, nullptr, 1);
    Tracer t;
    const OpResult traced = runOp(op, &t, 1);
    EXPECT_FALSE(plain.failure.has_value());
    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_EQ(plain.sim_steps, 1);
    const auto layers = t.layers();
    EXPECT_EQ(layers.at("op").calls, 1);
    EXPECT_GT(layers.at("tensor.docmask_build").calls, 0);
    EXPECT_GT(t.counter("pp.ops_executed"), 0.0);
}

} // namespace
