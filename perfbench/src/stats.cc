#include "stats.h"

#include <algorithm>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return 0.5 * (lower + upper);
}

std::optional<Tail>
tailPercentile(std::vector<double> samples, std::int64_t min_beyond)
{
    const auto n = static_cast<std::int64_t>(samples.size());
    if (n <= min_beyond)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    const std::int64_t rank = n - min_beyond; // 1-based nearest rank
    Tail t;
    t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    t.value = samples[static_cast<std::size_t>(rank - 1)];
    t.beyond = min_beyond;
    return t;
}

std::optional<Tail>
windowedTail(const std::vector<double> &samples, std::int64_t windows,
             std::int64_t min_beyond)
{
    if (windows < 1)
        return std::nullopt;
    const std::size_t size = samples.size() / static_cast<std::size_t>(windows);
    std::vector<double> values;
    std::optional<Tail> first;
    for (std::int64_t w = 0; w < windows; ++w) {
        const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(
                                                 size * static_cast<std::size_t>(w));
        const auto end = w + 1 == windows
                             ? samples.end()
                             : begin + static_cast<std::ptrdiff_t>(size);
        const std::optional<Tail> t =
            tailPercentile(std::vector<double>(begin, end), min_beyond);
        if (!t)
            return std::nullopt;
        if (!first)
            first = t;
        values.push_back(t->value);
    }
    first->value = median(values);
    return first;
}

} // namespace perfbench
