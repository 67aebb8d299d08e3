#include "trace.h"

#include <cstdio>
#include <string_view>

namespace perfbench {

Tracer::Scope::Scope(Tracer *tracer, const char *name, std::int64_t op)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        tracer_->open(name, op);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close();
}

void
Tracer::open(const char *name, std::int64_t op)
{
    std::int64_t kept = -1;
    if (keep_) {
        Span s;
        s.name = name;
        s.op = op;
        s.parent = open_.empty() ? -1 : open_.back().kept;
        kept = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(s);
    }
    open_.push_back({name, kept, Clock::now()});
}

void
Tracer::close()
{
    const Clock::time_point end = Clock::now();
    const Open o = open_.back();
    open_.pop_back();
    const double dur = secondsBetween(o.start, end);
    auto it = layers_.find(std::string_view(o.name));
    if (it == layers_.end())
        it = layers_.emplace(o.name, LayerStats{}).first;
    LayerStats &l = it->second;
    ++l.calls;
    l.busy_s += dur;
    l.self_s += dur - o.child_s;
    if (!open_.empty())
        open_.back().child_s += dur;
    if (o.kept >= 0) {
        Span &s = spans_[static_cast<std::size_t>(o.kept)];
        s.start = o.start;
        s.end = end;
    }
}

double
Tracer::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void
Tracer::writeChromeJson(std::ostream &out) const
{
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    char buf[128];
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", us(s.start),
                      us(s.end) - us(s.start));
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            << buf << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
            << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n],\"otherData\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        std::snprintf(buf, sizeof buf, "%.17g", value);
        out << (first ? "" : ",") << "\"" << name << "\":" << buf;
        first = false;
    }
    out << "}}\n";
}

} // namespace perfbench
