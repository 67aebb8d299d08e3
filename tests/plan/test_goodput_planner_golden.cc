/**
 * Bit-exact golden planGoodput rankings.
 *
 * Two queries sweep every recovery-policy axis at two options. For each
 * ranked candidate the test pins its layout, best_point and goodput
 * bits; for each sweep cell, in sweep order, it pins the eight axis
 * values, the derived mode and placement_migration, the Young-Daly
 * interval and the bits of the provisioned-GPU goodput. A change to the
 * axis order, to a skip rule or to any cell's pricing fails here.
 *
 * The worn 2K query has a straggler class and only DP-peer survivors,
 * so its grid exercises the first three skip rules. The 16-GPU query
 * turns the straggler class off and keeps a dp 1 survivor, so it
 * exercises the last two: tiers need a DP peer, correlation needs
 * stragglers.
 *
 * A mismatch prints the whole actual table in the initializer form of
 * the expected one, so a change that is meant to move the numbers can
 * be recaptured and reviewed row by row.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "llm4d/plan/goodput_planner.h"

namespace llm4d {
namespace {

/** Every axis at two options, placement migration on. */
void
sweepEveryAxis(GoodputPlanInput &in)
{
    in.spare_pool_options = {0, 4};
    in.checkpoint_mode_options = {CheckpointMode::Sync,
                                  CheckpointMode::Async};
    in.dp_shrink_options = {false, true};
    in.regrow_options = {false, true};
    in.partial_restart_options = {false, true};
    in.placement_options = {SparePlacementPolicy::CentralPool,
                            SparePlacementPolicy::PerPodReserve};
    in.hier_global_every_options = {0, 8};
    in.straggler_correlation_options = {false, true};
    in.placement_migration = true;
}

/** A worn 2K-GPU fleet: faults, stragglers and repairs all land inside
 *  a short horizon. */
GoodputPlanInput
worn2k()
{
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(2048);
    GpuSpec &gpu = in.base.cluster.node.gpu;
    gpu.fatal_mtbf_hours /= 100.0;
    in.base.cluster.node.host_mtbf_hours /= 100.0;
    gpu.straggler_mtbf_hours /= 100.0;
    in.base.cluster.node.nic_flap_mtbf_hours /= 10.0;
    in.base.global_batch_tokens = 2048LL * 512;
    in.top_k = 1;
    in.horizon_steps = 1500;
    in.fault_seed = 7;
    in.repairs.gpu_repair_mean_hours = 0.1;
    in.repairs.host_repair_mean_hours = 0.15;
    sweepEveryAxis(in);
    return in;
}

/** A 16-GPU 8B job without a straggler class; its tp8/pp2 survivor
 *  has no DP peer. */
GoodputPlanInput
tiny16()
{
    GoodputPlanInput in;
    in.base.model = ModelConfig::llama3_8b();
    in.base.cluster = ClusterSpec::llama3Production(16);
    in.base.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    in.base.cluster.node.gpu.fatal_mtbf_hours /= 20000.0;
    in.base.cluster.node.host_mtbf_hours /= 20000.0;
    in.base.global_batch_tokens = 16LL * 8192;
    in.base.tp_options = {8};
    in.base.cp_options = {1};
    in.base.pp_options = {1, 2};
    in.top_k = 2;
    in.horizon_steps = 400;
    in.fault_seed = 3;
    sweepEveryAxis(in);
    in.spare_pool_options = {0, 1};
    return in;
}

std::string
hex(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return buf;
}

/** One line per ranked candidate, followed by one line per sweep cell. */
std::vector<std::string>
rows(const std::vector<GoodputPlanCandidate> &ranked)
{
    std::vector<std::string> out;
    for (const GoodputPlanCandidate &cand : ranked) {
        out.push_back(cand.analytic.par.str() + " zero" +
                      std::to_string(static_cast<int>(cand.analytic.zero)) +
                      " sched" +
                      std::to_string(static_cast<int>(cand.analytic.schedule)) +
                      " cells " + std::to_string(cand.sweep.size()) +
                      " best " + std::to_string(cand.best_point) + " " +
                      hex(cand.goodput_tflops_per_gpu));
        for (const GoodputSweepPoint &pt : cand.sweep) {
            const RecoveryPolicy &p = pt.policy;
            out.push_back(
                "  s" + std::to_string(p.spare_hosts) + " " +
                toString(p.checkpoint_mode) + " shrink" +
                std::to_string(p.allow_dp_shrink) + " regrow" +
                std::to_string(p.allow_regrow) + " partial" +
                std::to_string(p.partial_restart) + " " +
                toString(p.spare_placement) + " h" +
                std::to_string(pt.hier_global_every) + " corr" +
                std::to_string(pt.straggler_correlation) + " " +
                toString(p.mode) + " mig" +
                std::to_string(p.placement_migration) + " i" +
                std::to_string(pt.checkpoint_interval_steps) + " ev" +
                std::to_string(pt.report.timeline.size()) + " " +
                hex(pt.goodput_tflops_per_gpu));
        }
    }
    return out;
}

/** The actual table, printed in the initializer form of the golden. */
std::string
asInitializer(const std::vector<std::string> &actual)
{
    std::string out = "{\n";
    for (const std::string &row : actual)
        out += "    \"" + row + "\",\n";
    return out + "}";
}

void
expectGolden(const GoodputPlanInput &in,
             const std::vector<std::string> &golden)
{
    const std::vector<std::string> actual = rows(planGoodput(in));
    EXPECT_EQ(actual, golden) << asInitializer(actual);
}

TEST(GoodputPlannerGolden, Worn2kRankingIsBitIdentical)
{
    expectGolden(worn2k(), {
        "tp8 cp2 pp8 dp16 zero0 sched2 cells 128 best 84 0x407a8bbfeef8e62b",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr1 full-restart mig0 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink0 regrow0 partial0 central-pool h8 corr1 full-restart mig0 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40744b36e01a3e46",
        "  s0 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 sync shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4074f8345858b80d",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr1 full-restart mig0 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink0 regrow0 partial0 central-pool h8 corr1 full-restart mig0 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x4079e9cb62ff8160",
        "  s0 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s0 async shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x407815d5f1b3051c",
        "  s4 sync shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink0 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink0 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink0 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink0 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink0 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink0 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink0 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink0 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink1 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i94 ev5 0x40742a0e81b5f5b4",
        "  s4 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x4073f41fb5b69642",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i94 ev4 0x40772eef2277840e",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev5 0x4074e4f5453f60d1",
        "  s4 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev5 0x407510145bf278fe",
        "  s4 sync shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 sync shrink1 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev4 0x4076c1ccd16f0fd7",
        "  s4 async shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink0 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink0 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink0 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink0 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink0 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink0 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink0 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink0 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink1 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i15 ev2 0x40796e7372f730d4",
        "  s4 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i8 ev4 0x407667b70b7763ea",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i15 ev2 0x407a8bbfeef8e62b",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x407956c5d624004f",
        "  s4 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i8 ev3 0x4077bb7e0cb0ca81",
        "  s4 async shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "  s4 async shrink1 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i8 ev2 0x4079fe998c34c213",
        "tp8 cp1 pp2 dp128 zero1 sched1 cells 128 best 102 0x4069c5c7d48b9a82",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i50 ev14 0x4063b6c98d691aab",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr1 full-restart mig0 i50 ev14 0x4063b6df42c47561",
        "  s0 sync shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i4 ev14 0x4063e2d812679ea1",
        "  s0 sync shrink0 regrow0 partial0 central-pool h8 corr1 full-restart mig0 i4 ev14 0x4063b83981cc33f4",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063b6c98d691aab",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x4063b6df42c47561",
        "  s0 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev14 0x4063e2d812679ea1",
        "  s0 sync shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev14 0x4063b83981cc33f4",
        "  s0 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev14 0x4063e2d812679ea1",
        "  s0 sync shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev14 0x4063b83981cc33f4",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063b6c98d691aab",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x4063b6df42c47561",
        "  s0 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev14 0x4063e2d812679ea1",
        "  s0 sync shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev14 0x4063b83981cc33f4",
        "  s0 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev14 0x4063e2d812679ea1",
        "  s0 sync shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev14 0x4063b83981cc33f4",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i8 ev12 0x4067ea9427ed90a4",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr1 full-restart mig0 i8 ev12 0x4067ba0a52f1d08b",
        "  s0 async shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i4 ev12 0x40671dcda60851ee",
        "  s0 async shrink0 regrow0 partial0 central-pool h8 corr1 full-restart mig0 i4 ev12 0x4066e14c13ea0da4",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x4067ea9427ed90a4",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x4067ba0a52f1d08b",
        "  s0 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40671dcda60851ee",
        "  s0 async shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x4066e14c13ea0da4",
        "  s0 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40671dcda60851ee",
        "  s0 async shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x4066e14c13ea0da4",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x4067ea9427ed90a4",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x4067ba0a52f1d08b",
        "  s0 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40671dcda60851ee",
        "  s0 async shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x4066e14c13ea0da4",
        "  s0 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40671dcda60851ee",
        "  s0 async shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x4066e14c13ea0da4",
        "  s4 sync shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063804957c0882d",
        "  s4 sync shrink0 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x406380627d2594f9",
        "  s4 sync shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev16 0x406225f9733e2c06",
        "  s4 sync shrink0 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev15 0x40628142fc5832f0",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i50 ev12 0x406546e9859be81c",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i50 ev12 0x406547cbe6d745ed",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev13 0x40644123fd48917f",
        "  s4 sync shrink0 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev13 0x4064427ad1577d38",
        "  s4 sync shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40652c4151591797",
        "  s4 sync shrink0 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev13 0x4064c9e126eb9159",
        "  s4 sync shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x40659fb5d9acfa85",
        "  s4 sync shrink0 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4065acffc333fdd9",
        "  s4 sync shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063804957c0882d",
        "  s4 sync shrink0 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x406380627d2594f9",
        "  s4 sync shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev16 0x406225f9733e2c06",
        "  s4 sync shrink0 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev15 0x40628142fc5832f0",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i50 ev12 0x40672a2d3863ce02",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i50 ev12 0x406692c4917a7d49",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x406590827940d632",
        "  s4 sync shrink0 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev13 0x40647d9d8215a7c0",
        "  s4 sync shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40652c4151591797",
        "  s4 sync shrink0 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev13 0x4064c9e126eb9159",
        "  s4 sync shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4066ed5a66834a46",
        "  s4 sync shrink0 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4066c010d639e366",
        "  s4 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063804957c0882d",
        "  s4 sync shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x406380627d2594f9",
        "  s4 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev16 0x406225f9733e2c06",
        "  s4 sync shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev15 0x40628142fc5832f0",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i50 ev12 0x406546e9859be81c",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i50 ev12 0x406547cbe6d745ed",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev13 0x40644123fd48917f",
        "  s4 sync shrink1 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev13 0x4064427ad1577d38",
        "  s4 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40652c4151591797",
        "  s4 sync shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev13 0x4064c9e126eb9159",
        "  s4 sync shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x40659fb5d9acfa85",
        "  s4 sync shrink1 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4065acffc333fdd9",
        "  s4 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i50 ev14 0x4063804957c0882d",
        "  s4 sync shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i50 ev14 0x406380627d2594f9",
        "  s4 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev16 0x406225f9733e2c06",
        "  s4 sync shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev15 0x40628142fc5832f0",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i50 ev12 0x40672a2d3863ce02",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i50 ev12 0x406692c4917a7d49",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x406590827940d632",
        "  s4 sync shrink1 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev13 0x40647d9d8215a7c0",
        "  s4 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40652c4151591797",
        "  s4 sync shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev13 0x4064c9e126eb9159",
        "  s4 sync shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4066ed5a66834a46",
        "  s4 sync shrink1 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4066c010d639e366",
        "  s4 async shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x40679575732829a6",
        "  s4 async shrink0 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x40677db7885bdd8e",
        "  s4 async shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40665a38ba4a7b10",
        "  s4 async shrink0 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x406620a344e7c2b9",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i8 ev12 0x4068932a1b2f21a7",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i8 ev12 0x40685df5427b5fd4",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4066f1461dee8115",
        "  s4 async shrink0 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4066c3625334045f",
        "  s4 async shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40674205b53a7bf8",
        "  s4 async shrink0 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x40671a5b89d809cf",
        "  s4 async shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x40682cc7b04d70ef",
        "  s4 async shrink0 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4067e9fd027cc791",
        "  s4 async shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x40679575732829a6",
        "  s4 async shrink0 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x40677db7885bdd8e",
        "  s4 async shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40665a38ba4a7b10",
        "  s4 async shrink0 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x406620a344e7c2b9",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i8 ev11 0x4069b51709282a81",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i8 ev11 0x40697bc1e55f1295",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4067ba6bd2e54b50",
        "  s4 async shrink0 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x40678893e7d5ebf3",
        "  s4 async shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40674205b53a7bf8",
        "  s4 async shrink0 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x40671a5b89d809cf",
        "  s4 async shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev11 0x4069c5c7d48b9a82",
        "  s4 async shrink0 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev11 0x40698b8174e377ac",
        "  s4 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x40679575732829a6",
        "  s4 async shrink1 regrow0 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x40677db7885bdd8e",
        "  s4 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40665a38ba4a7b10",
        "  s4 async shrink1 regrow0 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x406620a344e7c2b9",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i8 ev12 0x4068932a1b2f21a7",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i8 ev12 0x40685df5427b5fd4",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4066f1461dee8115",
        "  s4 async shrink1 regrow0 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4066c3625334045f",
        "  s4 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40674205b53a7bf8",
        "  s4 async shrink1 regrow0 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x40671a5b89d809cf",
        "  s4 async shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x40682cc7b04d70ef",
        "  s4 async shrink1 regrow0 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x4067e9fd027cc791",
        "  s4 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i8 ev12 0x40679575732829a6",
        "  s4 async shrink1 regrow1 partial0 central-pool h0 corr1 warm-spare mig1 i8 ev12 0x40677db7885bdd8e",
        "  s4 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40665a38ba4a7b10",
        "  s4 async shrink1 regrow1 partial0 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x406620a344e7c2b9",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i8 ev11 0x4069b51709282a81",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h0 corr1 warm-spare mig1 i8 ev11 0x40697bc1e55f1295",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev12 0x4067ba6bd2e54b50",
        "  s4 async shrink1 regrow1 partial0 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev12 0x40678893e7d5ebf3",
        "  s4 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i4 ev12 0x40674205b53a7bf8",
        "  s4 async shrink1 regrow1 partial1 central-pool h8 corr1 warm-spare mig1 i4 ev12 0x40671a5b89d809cf",
        "  s4 async shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i4 ev11 0x4069c5c7d48b9a82",
        "  s4 async shrink1 regrow1 partial1 per-pod-reserve h8 corr1 warm-spare mig1 i4 ev11 0x40698b8174e377ac",
    });
}

TEST(GoodputPlannerGolden, Tiny16RankingIsBitIdentical)
{
    expectGolden(tiny16(), {
        "tp8 cp1 pp1 dp2 zero2 sched2 cells 64 best 1 0x4064ee0f5bbfa39a",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i263 ev2 0x4063f202d57ff9b1",
        "  s0 sync shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i19 ev2 0x4064ee0f5bbfa39a",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x4063f202d57ff9b1",
        "  s0 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064ee0f5bbfa39a",
        "  s0 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064ee0f5bbfa39a",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x4063f202d57ff9b1",
        "  s0 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064ee0f5bbfa39a",
        "  s0 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064ee0f5bbfa39a",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i29 ev2 0x4060e97c4d35bd02",
        "  s0 async shrink0 regrow0 partial0 central-pool h8 corr0 full-restart mig0 i19 ev2 0x4064eaac1d7b19cc",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x4060e97c4d35bd02",
        "  s0 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064eaac1d7b19cc",
        "  s0 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064eaac1d7b19cc",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x4060e97c4d35bd02",
        "  s0 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064eaac1d7b19cc",
        "  s0 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x4064eaac1d7b19cc",
        "  s1 sync shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x405a219deaf06cbb",
        "  s1 sync shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x40550be5f91b1289",
        "  s1 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i263 ev2 0x405a9803c7554cec",
        "  s1 sync shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x4055975e4b6ad91f",
        "  s1 sync shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405a13b23fe4b1cd",
        "  s1 sync shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405a6643834b48e5",
        "  s1 sync shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x405a219deaf06cbb",
        "  s1 sync shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x40550be5f91b1289",
        "  s1 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i263 ev2 0x405a9803c7554cec",
        "  s1 sync shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x4055975e4b6ad91f",
        "  s1 sync shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405a13b23fe4b1cd",
        "  s1 sync shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405a6643834b48e5",
        "  s1 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x405a219deaf06cbb",
        "  s1 sync shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x40550be5f91b1289",
        "  s1 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i263 ev2 0x405a9803c7554cec",
        "  s1 sync shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x4055975e4b6ad91f",
        "  s1 sync shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405a13b23fe4b1cd",
        "  s1 sync shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405a6643834b48e5",
        "  s1 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i263 ev2 0x405a219deaf06cbb",
        "  s1 sync shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x40550be5f91b1289",
        "  s1 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i263 ev2 0x405a9803c7554cec",
        "  s1 sync shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x4055975e4b6ad91f",
        "  s1 sync shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405a13b23fe4b1cd",
        "  s1 sync shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405a6643834b48e5",
        "  s1 async shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x405679a1f8e7bd3b",
        "  s1 async shrink0 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405d175fa3cb5ac3",
        "  s1 async shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i29 ev2 0x40568ca5bc47a6ad",
        "  s1 async shrink0 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405bb016491e3be1",
        "  s1 async shrink0 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink0 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x405679a1f8e7bd3b",
        "  s1 async shrink0 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405d175fa3cb5ac3",
        "  s1 async shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i29 ev2 0x40568ca5bc47a6ad",
        "  s1 async shrink0 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405bb016491e3be1",
        "  s1 async shrink0 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink0 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x405679a1f8e7bd3b",
        "  s1 async shrink1 regrow0 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405d175fa3cb5ac3",
        "  s1 async shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i29 ev2 0x40568ca5bc47a6ad",
        "  s1 async shrink1 regrow0 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405bb016491e3be1",
        "  s1 async shrink1 regrow0 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink1 regrow0 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i29 ev2 0x405679a1f8e7bd3b",
        "  s1 async shrink1 regrow1 partial0 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405d175fa3cb5ac3",
        "  s1 async shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i29 ev2 0x40568ca5bc47a6ad",
        "  s1 async shrink1 regrow1 partial0 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405bb016491e3be1",
        "  s1 async shrink1 regrow1 partial1 central-pool h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "  s1 async shrink1 regrow1 partial1 per-pod-reserve h8 corr0 warm-spare mig1 i19 ev2 0x405f916bd4f14217",
        "tp8 cp1 pp2 dp1 zero0 sched2 cells 22 best 0 0x4063928acc5c63d2",
        "  s0 sync shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i252 ev2 0x4063928acc5c63d2",
        "  s0 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4063928acc5c63d2",
        "  s0 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4063928acc5c63d2",
        "  s0 async shrink0 regrow0 partial0 central-pool h0 corr0 full-restart mig0 i28 ev2 0x40603baffafc7827",
        "  s0 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x40603baffafc7827",
        "  s0 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x40603baffafc7827",
        "  s1 sync shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4059983427cd4141",
        "  s1 sync shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i252 ev2 0x405a18b9107b2fc3",
        "  s1 sync shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4059983427cd4141",
        "  s1 sync shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i252 ev2 0x405a18b9107b2fc3",
        "  s1 sync shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4059983427cd4141",
        "  s1 sync shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i252 ev2 0x405a18b9107b2fc3",
        "  s1 sync shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i252 ev2 0x4059983427cd4141",
        "  s1 sync shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i252 ev2 0x405a18b9107b2fc3",
        "  s1 async shrink0 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x4055932fc1656459",
        "  s1 async shrink0 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i28 ev2 0x4055a4eaa3fb4adf",
        "  s1 async shrink0 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x4055932fc1656459",
        "  s1 async shrink0 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i28 ev2 0x4055a4eaa3fb4adf",
        "  s1 async shrink1 regrow0 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x4055932fc1656459",
        "  s1 async shrink1 regrow0 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i28 ev2 0x4055a4eaa3fb4adf",
        "  s1 async shrink1 regrow1 partial0 central-pool h0 corr0 warm-spare mig1 i28 ev2 0x4055932fc1656459",
        "  s1 async shrink1 regrow1 partial0 per-pod-reserve h0 corr0 warm-spare mig1 i28 ev2 0x4055a4eaa3fb4adf",
    });
}

/** Names of the TrainRunReport fields whose bits differ, timeline included. */
std::vector<std::string>
differingFields(const TrainRunReport &a, const TrainRunReport &b)
{
    std::vector<std::string> out;
    auto check = [&out](const char *name, auto x, auto y) {
        if constexpr (std::is_floating_point_v<decltype(x)>) {
            if (std::bit_cast<std::uint64_t>(x) !=
                std::bit_cast<std::uint64_t>(y))
                out.emplace_back(name);
        } else if (x != y) {
            out.emplace_back(name);
        }
    };
    check("completed", a.completed, b.completed);
    check("wall_seconds", a.wall_seconds, b.wall_seconds);
    check("ideal_seconds", a.ideal_seconds, b.ideal_seconds);
    check("steps_committed", a.steps_committed, b.steps_committed);
    check("steps_lost", a.steps_lost, b.steps_lost);
    check("restarts", a.restarts, b.restarts);
    check("spare_swaps", a.spare_swaps, b.spare_swaps);
    check("cross_pod_swaps", a.cross_pod_swaps, b.cross_pod_swaps);
    check("placement_migrations", a.placement_migrations,
          b.placement_migrations);
    check("dp_shrinks", a.dp_shrinks, b.dp_shrinks);
    check("dp_regrows", a.dp_regrows, b.dp_regrows);
    check("hosts_repaired", a.hosts_repaired, b.hosts_repaired);
    check("rebalances", a.rebalances, b.rebalances);
    check("partial_restarts", a.partial_restarts, b.partial_restarts);
    check("tier_fallbacks", a.tier_fallbacks, b.tier_fallbacks);
    for (std::size_t t = 0; t < a.tier_restore_seconds.size(); ++t)
        check("tier_restore_seconds", a.tier_restore_seconds[t],
              b.tier_restore_seconds[t]);
    check("final_dp", a.final_dp, b.final_dp);
    check("faults.gpu_fatal", a.faults.gpu_fatal, b.faults.gpu_fatal);
    check("faults.host_crash", a.faults.host_crash, b.faults.host_crash);
    check("faults.link_flaps", a.faults.link_flaps, b.faults.link_flaps);
    check("faults.stragglers", a.faults.stragglers, b.faults.stragglers);
    check("productive_seconds", a.productive_seconds, b.productive_seconds);
    check("degraded_seconds", a.degraded_seconds, b.degraded_seconds);
    check("checkpoint_seconds", a.checkpoint_seconds, b.checkpoint_seconds);
    check("lost_seconds", a.lost_seconds, b.lost_seconds);
    check("detection_seconds", a.detection_seconds, b.detection_seconds);
    check("restart_seconds", a.restart_seconds, b.restart_seconds);
    check("spare_swap_seconds", a.spare_swap_seconds, b.spare_swap_seconds);
    check("shrink_seconds", a.shrink_seconds, b.shrink_seconds);
    check("regrow_seconds", a.regrow_seconds, b.regrow_seconds);
    check("drain_stall_seconds", a.drain_stall_seconds,
          b.drain_stall_seconds);
    check("displacement_seconds", a.displacement_seconds,
          b.displacement_seconds);
    check("goodput_tflops_per_gpu", a.goodput_tflops_per_gpu,
          b.goodput_tflops_per_gpu);
    check("base_tflops_per_gpu", a.base_tflops_per_gpu,
          b.base_tflops_per_gpu);
    check("availability", a.availability, b.availability);
    check("engine_events", a.engine_events, b.engine_events);
    check("timeline.size", a.timeline.size(), b.timeline.size());
    for (std::size_t k = 0;
         k < std::min(a.timeline.size(), b.timeline.size()); ++k) {
        const FaultEvent &x = a.timeline[k];
        const FaultEvent &y = b.timeline[k];
        check("timeline.kind", x.kind, y.kind);
        check("timeline.when", x.when, y.when);
        check("timeline.component", x.component, y.component);
        check("timeline.severity", x.severity, y.severity);
        check("timeline.duration", x.duration, y.duration);
    }
    return out;
}

TEST(GoodputPlannerGolden, Worn2kUnshrinkableShrinkCellsMatchShrinkFree)
{
    // Neither worn 2K survivor ever shrinks. Without spares, a cell that
    // allows DP shrink (with or without its regrow and partial-restart
    // riders) runs warm-spare instead of full-restart, yet must produce
    // the whole report of its shrink-free twin: the cell with the same
    // checkpoint mode, placement, tier cadence and correlation.
    const std::vector<GoodputPlanCandidate> ranked = planGoodput(worn2k());
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].analytic.par.dp, 16);
    EXPECT_EQ(ranked[1].analytic.par.dp, 128);
    for (const GoodputPlanCandidate &cand : ranked) {
        SCOPED_TRACE(cand.analytic.par.str());
        auto twinOf = [&](const GoodputSweepPoint &pt) {
            for (const GoodputSweepPoint &twin : cand.sweep) {
                const RecoveryPolicy &p = twin.policy;
                if (p.spare_hosts == 0 && !p.allow_dp_shrink &&
                    p.checkpoint_mode == pt.policy.checkpoint_mode &&
                    p.spare_placement == pt.policy.spare_placement &&
                    twin.hier_global_every == pt.hier_global_every &&
                    twin.straggler_correlation == pt.straggler_correlation)
                    return &twin;
            }
            return static_cast<const GoodputSweepPoint *>(nullptr);
        };
        std::size_t pairs = 0;
        for (const GoodputSweepPoint &pt : cand.sweep) {
            EXPECT_EQ(pt.report.dp_shrinks, 0);
            if (pt.policy.spare_hosts != 0 || !pt.policy.allow_dp_shrink)
                continue;
            const GoodputSweepPoint *twin = twinOf(pt);
            ASSERT_NE(twin, nullptr);
            EXPECT_EQ(differingFields(pt.report, twin->report),
                      std::vector<std::string>{})
                << toString(pt.policy.checkpoint_mode) << " regrow"
                << pt.policy.allow_regrow << " partial"
                << pt.policy.partial_restart << " h"
                << pt.hier_global_every << " corr"
                << pt.straggler_correlation;
            ++pairs;
        }
        EXPECT_EQ(pairs, 24u);
    }
}

} // namespace
} // namespace llm4d
