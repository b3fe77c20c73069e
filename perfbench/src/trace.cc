#include <cstdio>

#include "bench.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer)
    : tracer_(tracer)
{
    if (tracer_ != nullptr)
        id_ = tracer_->open(name, layer);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(id_);
}

int
Tracer::open(const char* name, const char* layer)
{
    const double now = nowSeconds();
    if (spans_.empty())
        origin_ = now;
    Span span;
    span.name = name;
    span.layer = layer;
    span.start = now;
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = nowSeconds();
    stack_.pop_back();
    if (span.parent >= 0)
        spans_[static_cast<size_t>(span.parent)].childSeconds +=
            span.end - span.start;
}

std::map<std::string, double>
Tracer::selfByLayer() const
{
    std::map<std::string, double> self;
    for (const Span& s : spans_)
        self[s.layer] += (s.end - s.start) - s.childSeconds;
    return self;
}

std::map<std::string, double>
Tracer::totalByName() const
{
    std::map<std::string, double> total;
    for (const Span& s : spans_)
        total[s.name] += s.end - s.start;
    return total;
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %d}}%s\n",
                     s.name.c_str(), s.layer.c_str(),
                     (s.start - origin_) * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench
