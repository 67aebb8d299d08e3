#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/**
 * @file
 * Order statistics of per-op host times.
 */

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for an even count); 0 when
 *  @p samples is empty. */
[[nodiscard]] double median(std::vector<double> samples);

/** A tail percentile and how many samples lie beyond it. */
struct Tail
{
    double percentile = 0.0; ///< in percent, e.g. 99.5
    double value = 0.0;
    std::int64_t beyond = 0;
};

/**
 * The highest nearest-rank percentile that still has at least
 * @p min_beyond samples above it: with n sorted samples, the value at
 * rank n - min_beyond, which is percentile 100 * (n - min_beyond) / n.
 * nullopt when n <= min_beyond.
 */
[[nodiscard]] std::optional<Tail> tailPercentile(std::vector<double> samples,
                                                 std::int64_t min_beyond = 10);

/**
 * The tail of a long run, robust to a short burst of machine noise:
 * split @p samples (in time order) into @p windows consecutive windows
 * of equal size (the last one takes the remainder) and return the
 * median of their tailPercentile values. percentile and beyond describe
 * one window. nullopt when a window has min_beyond samples or fewer.
 */
[[nodiscard]] std::optional<Tail>
windowedTail(const std::vector<double> &samples, std::int64_t windows,
             std::int64_t min_beyond = 10);

} // namespace perfbench

#endif // PERFBENCH_STATS_H_
