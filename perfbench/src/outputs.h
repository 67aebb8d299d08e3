#ifndef PERFBENCH_OUTPUTS_H_
#define PERFBENCH_OUTPUTS_H_

/**
 * @file
 * What the benchmark checks and fingerprints in each op's output.
 *
 * The check* functions return the first violated invariant, or nullopt
 * when the report is sound. The digest* functions hash the bits of every
 * report field, so a digest repeats only when the simulated output
 * repeats bit for bit.
 */

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "llm4d/plan/goodput_planner.h"
#include "llm4d/sim/train_run_sim.h"

namespace perfbench {

using Failure = std::optional<std::string>;

/** Finite positive step time, TFLOPs/GPU within the GPU's peak, bubble
 *  ratio in [0, 1), non-negative exposed times. */
[[nodiscard]] Failure checkStep(const llm4d::TrainStepReport &rep,
                                const llm4d::TrainJobConfig &job);

/** A completed run whose breakdown buckets sum to wall_seconds, whose
 *  final DP follows from shrinks and regrows, and whose goodput does
 *  not exceed the fault-free base. */
[[nodiscard]] Failure checkRun(const llm4d::TrainRunReport &rep,
                               std::int64_t total_steps, std::int64_t dp);

/** A non-empty ranking sorted best first, each candidate's best() the
 *  maximum of its sweep, and every cell passing checkRun. */
[[nodiscard]] Failure
checkPlan(const std::vector<llm4d::GoodputPlanCandidate> &ranked,
          const llm4d::GoodputPlanInput &in);

/** FNV-1a over the bit patterns of the values added. */
class Digest
{
  public:
    template <class T>
    void
    add(T x)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        std::uint64_t bits = 0;
        if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == sizeof bits);
            std::memcpy(&bits, &x, sizeof bits);
        } else {
            bits = static_cast<std::uint64_t>(x);
        }
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }

    [[nodiscard]] std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void addTo(Digest &d, const llm4d::TrainStepReport &rep);
void addTo(Digest &d, const llm4d::TrainRunReport &rep);
void addTo(Digest &d, const std::vector<llm4d::GoodputPlanCandidate> &ranked);

} // namespace perfbench

#endif // PERFBENCH_OUTPUTS_H_
