/**
 * Bit-exact golden TrainStepReports.
 *
 * Each expected value is an IEEE-754 bit pattern captured from the
 * simulator when DocMask still stored per-token document starts and the
 * executor still sorted its records. Pinning the bits (not a tolerance)
 * means a later change of mask layout, pair counting or record order that
 * drifts any report by one ulp fails here instead of silently moving the
 * paper-vs-measured tables.
 */

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "llm4d/sim/train_sim.h"

namespace llm4d {
namespace {

struct GoldenCase
{
    const char *name;
    std::int64_t cp, pp, dp, seq;
    ScheduleKind schedule;
    double doc_mask_mean;
    std::uint64_t seed;
};

/** Causal and doc-masked, cp in {1, 2, 16}, across the three schedules. */
constexpr GoldenCase kGoldenCases[] = {
    {"causal_cp1_flexible", 1, 16, 128, 8192, ScheduleKind::Flexible, 0.0, 1},
    {"doc_cp1_afab", 1, 16, 128, 8192, ScheduleKind::AllForwardAllBackward,
     1024.0, 3},
    {"causal_cp2_1f1b", 2, 16, 64, 16384, ScheduleKind::Interleaved1F1B, 0.0,
     1},
    {"doc_cp2_flexible", 2, 8, 128, 16384, ScheduleKind::Flexible, 2048.0, 5},
    {"causal_cp16_afab", 16, 16, 8, 131072,
     ScheduleKind::AllForwardAllBackward, 0.0, 1},
    {"doc_cp16_1f1b", 16, 16, 8, 131072, ScheduleKind::Interleaved1F1B, 4096.0,
     7},
};

TrainJobConfig
goldenConfig(const GoldenCase &c)
{
    TrainJobConfig cfg; // 405B on the 16K-GPU production cluster
    cfg.par = ParallelismConfig{8, c.cp, c.pp, c.dp};
    cfg.seq = c.seq;
    cfg.schedule = c.schedule;
    cfg.doc_mask_mean = c.doc_mask_mean;
    cfg.seed = c.seed;
    return cfg;
}

struct GoldenReport
{
    const char *name;
    /** step_seconds, bubble_ratio, exposed tp/cp/fsdp, tflops_per_gpu. */
    std::vector<std::uint64_t> scalars;
    /** pp_rank_memory[r].total() for every pp rank. */
    std::vector<std::uint64_t> memory;
};

std::vector<GoldenReport>
goldenReports()
{
    return {
        {"causal_cp1_flexible",
         {0x40175f916972e37aULL, 0x3fc851abcbd884f9ULL, 0x3fe5c7e28f0ad16eULL,
          0x0000000000000000ULL, 0x3fde8ed5dc9b14fcULL, 0x407bd454f1d1f092ULL},
         {0x422fcd00d5000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x422ffd6618000000ULL,
          0x422fa0e618000000ULL, 0x422f446618000000ULL, 0x422ee7e618000000ULL,
          0x422e8b6618000000ULL, 0x422e2ee618000000ULL, 0x422dd26618000000ULL,
          0x422d7130d5000000ULL}},
        {"doc_cp1_afab",
         {0x4016e30d1bac175eULL, 0x3fcabdde3f3d389aULL, 0x3fe5c7e28f0ad16eULL,
          0x0000000000000000ULL, 0x3fde8ed5dc9b14fcULL, 0x407b5657384f61c2ULL},
         {0x422fcd00d5000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423013786a800000ULL}},
        {"causal_cp2_1f1b",
         {0x40188438e5b463b3ULL, 0x3fc7d50eff837484ULL, 0x3fe5c7e28f0ad16eULL,
          0x3f9d52a2ef6ba3b6ULL, 0x3fde8ed5dc9b14fcULL, 0x407bc493cdb57441ULL},
         {0x422fcd00d5000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x422ffd6618000000ULL,
          0x422fa0e618000000ULL, 0x422f446618000000ULL, 0x422ee7e618000000ULL,
          0x422e8b6618000000ULL, 0x422e2ee618000000ULL, 0x422dd26618000000ULL,
          0x422d7130d5000000ULL}},
        {"doc_cp2_flexible",
         {0x40163ca8aa273828ULL, 0x3fc25b7615fe889eULL, 0x3fe75629994272adULL,
          0x3f9f6ad32517e643ULL, 0x3fdedfc4dd5063d6ULL, 0x407cab16649b3da9ULL},
         {0x42345ae48b400000ULL, 0x423489d60c000000ULL, 0x423489d60c000000ULL,
          0x423489d60c000000ULL, 0x423472b60c000000ULL, 0x423444760c000000ULL,
          0x423416360c000000ULL, 0x4233e5fc8b400000ULL}},
        {"causal_cp16_afab",
         {0x40244dc0e276de09ULL, 0x3fc47abac5ecf86dULL, 0x3fe5c7e28f0ad16eULL,
          0x3fdb7d78c074e97bULL, 0x3fde8ed5dc9b14fcULL, 0x407b367e70699493ULL},
         {0x422fcd00d5000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423013786a800000ULL}},
        {"doc_cp16_1f1b",
         {0x401ba93e180986b6ULL, 0x3fcf7aca3fc908f6ULL, 0x3fe5c7e28f0ad16eULL,
          0x3fdb7d78c074e97bULL, 0x3fde8ed5dc9b14fcULL, 0x407a4ed10da76b26ULL},
         {0x422fcd00d5000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x423015d30c000000ULL,
          0x423015d30c000000ULL, 0x423015d30c000000ULL, 0x422ffd6618000000ULL,
          0x422fa0e618000000ULL, 0x422f446618000000ULL, 0x422ee7e618000000ULL,
          0x422e8b6618000000ULL, 0x422e2ee618000000ULL, 0x422dd26618000000ULL,
          0x422d7130d5000000ULL}},
    };
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(TrainSimGolden, ReportsAreBitIdentical)
{
    const std::vector<GoldenReport> golden = goldenReports();
    ASSERT_EQ(golden.size(), std::size(kGoldenCases));
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const GoldenCase &c = kGoldenCases[i];
        const GoldenReport &want = golden[i];
        SCOPED_TRACE(c.name);
        ASSERT_STREQ(c.name, want.name);
        const TrainStepReport rep = TrainSim(goldenConfig(c)).run();
        const std::vector<std::uint64_t> got{
            bits(rep.step_seconds),         bits(rep.bubble_ratio),
            bits(rep.exposed_tp_seconds),   bits(rep.exposed_cp_seconds),
            bits(rep.exposed_fsdp_seconds), bits(rep.tflops_per_gpu)};
        EXPECT_EQ(got, want.scalars);
        ASSERT_EQ(rep.pp_rank_memory.size(), want.memory.size());
        for (std::size_t r = 0; r < want.memory.size(); ++r) {
            EXPECT_EQ(bits(rep.pp_rank_memory[r].total()), want.memory[r])
                << "pp rank " << r;
        }
    }
}

TEST(TrainSimGolden, RerunIsBitIdentical)
{
    // The causal path draws no RNG and the doc-masked path redraws from
    // the seed, so two runs of one config agree bit for bit.
    for (const GoldenCase &c : kGoldenCases) {
        SCOPED_TRACE(c.name);
        const TrainSim sim(goldenConfig(c));
        const TrainStepReport a = sim.run();
        const TrainStepReport b = sim.run();
        EXPECT_EQ(bits(a.step_seconds), bits(b.step_seconds));
        EXPECT_EQ(bits(a.bubble_ratio), bits(b.bubble_ratio));
    }
}

} // namespace
} // namespace llm4d
