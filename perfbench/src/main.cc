/**
 * @file
 * llm4d_perfbench: the closed-loop host-time benchmark.
 *
 *   llm4d_perfbench --workload step_sweep|run_long|plan_worn --seed N
 *                   --seconds S --trace 0|1
 *                   [--spawned-at-ns T] [--setup-only] [--trace-file P]
 *
 * One caller issues op i + 1 only after op i returns. Set-up runs
 * checked warm-up ops whose inputs do not depend on the seed. An
 * untraced run (--trace 0) then times ops 0, 1, ... of the seed's
 * stream until S seconds have passed and at least the first block (and
 * 11 ops) is done, re-runs the first ops to check that their output
 * repeats bit for bit, and prints the end-to-end metrics. A traced run
 * (--trace 1) runs the first block over and over for S seconds, each op
 * untraced and then traced with replay probes, and prints the per-layer
 * metrics. Either way the last line of stdout is one JSON object.
 *
 * --spawned-at-ns is the CLOCK_MONOTONIC time at which the caller
 * started this process; set-up time is measured from it (from main()
 * otherwise). --setup-only stops after set-up and prints it.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "ops.h"
#include "stats.h"

using namespace perfbench;

namespace {

/** Ops re-run after an untraced run to check their output repeats. */
constexpr std::int64_t kRepeatOps = 4;

/** Fewest ops an untraced run times: the tail needs 10 beyond it. */
constexpr std::int64_t kMinOps = 11;

/** op_tail_ms is the median tail of up to kMaxTailWindows windows of at
 *  least kOpsPerTailWindow ops each (one window for shorter runs). */
constexpr std::int64_t kMaxTailWindows = 5;
constexpr std::int64_t kOpsPerTailWindow = 200;

/** Pins the process to @p cpu; false when that fails. */
bool
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
}

/**
 * Keeps a run on the fastest CPU it may use. On a shared host the cores
 * run at different speeds (by up to 1.7x, as neighbours load them), and
 * a run spread over fast and slow cores has a two-humped op-time
 * distribution whose median jumps between the humps from run to run.
 * So every kRecheck, between ops, the benchmark times a small fixed
 * TrainSim step on each allowed CPU (best of kProbeRuns) and pins itself
 * to the fastest. Does nothing when only one CPU is allowed or pinning
 * fails.
 */
class FastestCpu
{
  public:
    FastestCpu()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed))
                cpus_.push_back(c);
        }
        probe_.par = llm4d::ParallelismConfig{8, 1, 4, 512};
    }

    void
    maybeRecheck()
    {
        if (cpus_.size() < 2 || Clock::now() - last_ < kRecheck)
            return;
        double best_s = 0.0;
        int best = -1;
        for (const int cpu : cpus_) {
            if (!pinTo(cpu)) {
                cpus_.clear(); // pinning is not allowed here: stop trying
                return;
            }
            for (int i = 0; i < kProbeRuns; ++i) {
                const Clock::time_point t0 = Clock::now();
                static_cast<void>(llm4d::TrainSim(probe_).run());
                const double s = secondsBetween(t0, Clock::now());
                if (best < 0 || s < best_s) {
                    best_s = s;
                    best = cpu;
                }
            }
        }
        pinTo(best);
        last_ = Clock::now();
    }

  private:
    static constexpr std::chrono::milliseconds kRecheck{500};
    static constexpr int kProbeRuns = 3;
    std::vector<int> cpus_;
    llm4d::TrainJobConfig probe_;
    Clock::time_point last_{};
};

struct Args
{
    Workload workload = Workload::StepSweep;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool setup_only = false;
    long long spawned_at_ns = -1;
    std::string trace_file;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--setup-only") {
            a.setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            const std::optional<Workload> w = parseWorkload(value);
            if (!w)
                return false;
            a.workload = *w;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            have_seed = *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
            have_seconds = *end == '\0' && a.seconds > 0.0;
        } else if (flag == "--trace") {
            const std::string_view v = value;
            a.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (flag == "--spawned-at-ns") {
            a.spawned_at_ns = std::strtoll(value, &end, 10);
            if (*end != '\0')
                return false;
        } else if (flag == "--trace-file") {
            a.trace_file = value;
        } else {
            return false;
        }
    }
    return have_workload && have_seed && have_seconds && have_trace;
}

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

void
printResult(std::int64_t attempted, std::int64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

/** The line traced and untraced runs of one seed must agree on. */
void
printBlock(const Args &a, const std::vector<std::uint64_t> &digests,
           std::int64_t sim_steps)
{
    Digest d;
    for (const std::uint64_t x : digests)
        d.add(x);
    std::printf("block %s seed=%llu ops=%zu sim_steps=%lld digest=%016llx\n",
                toString(a.workload), static_cast<unsigned long long>(a.seed),
                digests.size(), static_cast<long long>(sim_steps),
                static_cast<unsigned long long>(d.value()));
}

void
reportFailure(std::int64_t op, const std::string &what)
{
    std::fprintf(stderr, "op %lld failed: %s\n", static_cast<long long>(op),
                 what.c_str());
}

/**
 * Peak resident set of this process, MB. Read from VmHWM, which starts
 * afresh at exec; getrusage's ru_maxrss would carry over the peak of
 * the process that forked this one.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

int
timedRun(const Args &a, double setup_s)
{
    const std::int64_t block = blockSize(a.workload);
    const std::int64_t min_ops = std::max(block, kMinOps);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    std::vector<double> op_ms;
    std::vector<std::uint64_t> digests;
    double host_s = 0.0;
    std::int64_t sim_steps = 0, block_steps = 0, failed = 0;
    FastestCpu cpus;
    for (std::int64_t i = 0; i < min_ops || Clock::now() < deadline; ++i) {
        cpus.maybeRecheck();
        const OpResult r = runOp(makeOp(a.workload, a.seed, i), nullptr, i);
        if (r.failure) {
            ++failed;
            reportFailure(i, *r.failure);
        }
        op_ms.push_back(r.host_seconds * 1e3);
        host_s += r.host_seconds;
        sim_steps += r.sim_steps;
        if (i < block) {
            digests.push_back(r.digest);
            block_steps += r.sim_steps;
        }
    }
    for (std::int64_t i = 0; i < std::min(kRepeatOps, block); ++i) {
        const OpResult r = runOp(makeOp(a.workload, a.seed, i), nullptr, i);
        if (r.digest != digests[static_cast<std::size_t>(i)]) {
            ++failed;
            reportFailure(i, "output differs when the op runs again");
        }
    }
    printBlock(a, digests, block_steps);

    const auto ops = static_cast<std::int64_t>(op_ms.size());
    const std::int64_t windows =
        std::clamp<std::int64_t>(ops / kOpsPerTailWindow, 1, kMaxTailWindows);
    const std::optional<Tail> tail = windowedTail(op_ms, windows);
    std::printf("op_tail_ms is the median over %lld windows of %lld ops of "
                "p%.3f, %lld ops beyond it\n",
                static_cast<long long>(windows),
                static_cast<long long>(ops / windows), tail->percentile,
                static_cast<long long>(tail->beyond));
    printResult(ops, failed,
                {{"sim_steps_per_s", "steps/s",
                  static_cast<double>(sim_steps) / host_s},
                 {"op_p50_ms", "ms", median(op_ms)},
                 {"op_tail_ms", "ms", tail->value},
                 {"setup_s", "s", setup_s},
                 {"peak_rss_mb", "MB", peakRssMb()}});
    return 0;
}

/**
 * The per-layer metrics of a traced run that made @p passes passes over
 * its block. Counts are per pass, so they are exact for the seed; times
 * are means over every call.
 */
std::vector<Metric>
layerMetrics(const Tracer &t, std::int64_t passes, double trace_overhead_frac)
{
    const Tracer::LayerMap &layers = t.layers();
    const auto stat = [&](const char *span) {
        const auto it = layers.find(span);
        return it == layers.end() ? Tracer::LayerStats{} : it->second;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto n = static_cast<double>(passes);
    const auto calls = [&](const char *span) {
        return static_cast<double>(stat(span).calls) / n;
    };
    /** Mean self time per call of @p span, in units of 1 / @p scale s. */
    const auto perCall = [&](const char *span, double scale) {
        return ratio(stat(span).self_s * scale,
                     static_cast<double>(stat(span).calls));
    };
    const auto perCount = [&](const char *span, const char *counter,
                              double scale) {
        return ratio(stat(span).self_s * scale, t.counter(counter));
    };
    const auto count = [&](const char *counter) {
        return t.counter(counter) / n;
    };
    return {
        {"simcore.engine_events", "count", count("simcore.engine_events")},
        {"simcore.engine_ns_per_event", "ns",
         perCount("simcore.engine", "simcore.engine_events", 1e9)},
        {"sim.run_calls", "count", calls("sim.run")},
        {"sim.run_ns_per_step", "ns",
         perCount("sim.run", "sim.steps_executed", 1e9)},
        {"sim.steps_executed", "count", count("sim.steps_executed")},
        {"sim.useful_step_ratio", "ratio",
         ratio(count("sim.steps_committed"), count("sim.steps_executed"))},
        {"sim.step_calls", "count", calls("sim.step")},
        {"sim.step_ms", "ms", perCall("sim.step", 1e3)},
        {"tensor.docmask_builds", "count", calls("tensor.docmask_build")},
        {"tensor.docmask_tokens", "count", count("tensor.docmask_tokens")},
        {"tensor.docmask_build_us", "us",
         perCall("tensor.docmask_build", 1e6)},
        {"cp.pairs_queries", "count", calls("cp.pairs_query")},
        {"cp.pairs_query_us", "us", perCall("cp.pairs_query", 1e6)},
        {"pp.build_us", "us", perCall("pp.build", 1e6)},
        {"pp.check_us", "us", perCall("pp.check", 1e6)},
        {"pp.execute_us", "us", perCall("pp.execute", 1e6)},
        {"pp.ops_executed", "count", count("pp.ops_executed")},
        {"net.topology_build_us", "us", perCall("net.topology_build", 1e6)},
        {"net.collective_calls", "count", calls("net.collective")},
        {"net.collective_ns_per_call", "ns", perCall("net.collective", 1e9)},
        {"model.cost_us", "us", perCall("model.cost", 1e6)},
        {"fault.events", "count", count("fault.events")},
        {"fault.ns_per_event", "ns",
         perCount("fault.next", "fault.events", 1e9)},
        {"fault.recoveries", "count", count("fault.recoveries")},
        {"fault.price_us", "us", perCall("fault.price", 1e6)},
        {"plan.enumerate_ms", "ms", perCall("plan.enumerate", 1e3)},
        {"plan.candidates", "count", count("plan.candidates")},
        {"plan.cells", "count", count("plan.cells")},
        {"plan.cell_ms", "ms", perCount("plan.goodput", "plan.cells", 1e3)},
        {"bench.trace_overhead_frac", "frac", trace_overhead_frac},
    };
}

int
tracedRun(const Args &a)
{
    // The first block runs again and again until --seconds have passed,
    // at least once. Each op runs untraced and then traced, back to
    // back, so the two timings see the same machine state. Spans are
    // kept for the trace file during the first pass only.
    const std::int64_t block = blockSize(a.workload);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.seconds));
    std::vector<std::uint64_t> digests;
    std::int64_t failed = 0, block_steps = 0, passes = 0;
    double untraced_s = 0.0;
    Tracer tracer;
    FastestCpu cpus;
    for (; passes == 0 || Clock::now() < deadline; ++passes) {
        tracer.keepSpans(passes == 0);
        for (std::int64_t i = 0; i < block; ++i) {
            cpus.maybeRecheck();
            const OpInput op = makeOp(a.workload, a.seed, i);
            const OpResult plain = runOp(op, nullptr, i);
            const OpResult traced = runOp(op, &tracer, i);
            for (const OpResult *r : {&plain, &traced}) {
                if (r->failure) {
                    ++failed;
                    reportFailure(i, *r->failure);
                }
            }
            if (passes == 0) {
                digests.push_back(plain.digest);
                block_steps += plain.sim_steps;
            }
            const std::uint64_t first = digests[static_cast<std::size_t>(i)];
            if (plain.digest != first || traced.digest != first) {
                ++failed;
                reportFailure(i, "output differs between runs of the op");
            }
            untraced_s += plain.host_seconds;
        }
    }
    printBlock(a, digests, block_steps);

    const Tracer::LayerMap &layers = tracer.layers();
    std::printf("%lld passes over the block; totals:\n%-24s %10s %12s %12s\n",
                static_cast<long long>(passes), "span", "calls", "busy_ms",
                "self_ms");
    for (const auto &[name, l] : layers) {
        std::printf("%-24s %10lld %12.3f %12.3f\n", name.c_str(),
                    static_cast<long long>(l.calls), l.busy_s * 1e3,
                    l.self_s * 1e3);
    }
    if (!a.trace_file.empty()) {
        std::ofstream out(a.trace_file);
        tracer.writeChromeJson(out);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", a.trace_file.c_str());
            return 1;
        }
    }
    const double traced_s = layers.at("op").busy_s;
    printResult(2 * block * passes, failed,
                layerMetrics(tracer, passes,
                             (traced_s - untraced_s) / untraced_s));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point entered = Clock::now();
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload step_sweep|run_long|plan_worn "
                     "--seed N --seconds S --trace 0|1 [--spawned-at-ns T] "
                     "[--setup-only] [--trace-file PATH]\n",
                     argv[0]);
        return 2;
    }
    const Clock::time_point spawned =
        a.spawned_at_ns < 0
            ? entered
            : Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                  std::chrono::nanoseconds(a.spawned_at_ns)));

    // Set-up: checked warm-up ops whose inputs are the same for every
    // seed, so set-up time does not depend on the seed's draws.
    for (std::int64_t i = 0; i < warmupOps(a.workload); ++i) {
        const OpResult warm = runOp(makeOp(a.workload, 0, i), nullptr, i);
        if (warm.failure) {
            reportFailure(i, "warm-up: " + *warm.failure);
            return 1;
        }
    }
    const double setup_s = secondsBetween(spawned, Clock::now());
    if (a.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", setup_s);
        return 0;
    }
    return a.trace ? tracedRun(a) : timedRun(a, setup_s);
}
