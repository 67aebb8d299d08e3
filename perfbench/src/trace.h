#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into one layer: name, start, end, the span that
 * was open when it started (its parent), and the id of the op it
 * belongs to. Every span adds to its layer's totals as it closes. While
 * keepSpans() is on, spans also stay in memory until the run ends, then
 * go out as Chrome trace-event JSON, which Perfetto opens. Named
 * counters record the work done at the same boundaries (tokens, events,
 * records).
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t op = 0;
        std::int64_t parent = -1; ///< index into spans(); -1 = top level
        Clock::time_point start;
        Clock::time_point end;
    };

    /** Per-name totals over every span. */
    struct LayerStats
    {
        std::int64_t calls = 0;
        double busy_s = 0.0; ///< summed span durations
        double self_s = 0.0; ///< busy minus time covered by child spans
    };

    /**
     * Records one span from construction to destruction, as a child of
     * the innermost open span. With a null tracer it records nothing,
     * so traced and untraced code paths are the same code.
     */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, std::int64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
    };

    /** Keep (the default) or stop keeping spans for writeChromeJson. */
    void keepSpans(bool keep) { keep_ = keep; }

    /** Add @p n to the counter @p name. */
    void count(const std::string &name, double n) { counters_[name] += n; }

    /** Value of counter @p name; 0 when never counted. */
    [[nodiscard]] double counter(const std::string &name) const;

    /** The kept spans. */
    [[nodiscard]] const std::vector<Span> &spans() const { return spans_; }

    using LayerMap = std::map<std::string, LayerStats, std::less<>>;

    /** Totals per span name. */
    [[nodiscard]] const LayerMap &layers() const
    {
        return layers_;
    }

    /** Chrome trace-event JSON of the kept spans, plus the counters. */
    void writeChromeJson(std::ostream &out) const;

  private:
    struct Open
    {
        const char *name;
        std::int64_t kept; ///< index into spans_, or -1
        Clock::time_point start;
        double child_s = 0.0; ///< time covered by closed child spans
    };

    void open(const char *name, std::int64_t op);
    void close();

    Clock::time_point origin_ = Clock::now();
    bool keep_ = true;
    std::vector<Span> spans_;
    std::vector<Open> open_;
    LayerMap layers_;
    std::map<std::string, double> counters_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
