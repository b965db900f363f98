#include "tracer.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace perfbench
{

Tracer::Tracer(bool record) : _record(record), _epoch(Clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - _epoch).count();
}

int
Tracer::record(const char *name, double start, double end, int parent,
               std::uint64_t job)
{
    if (parent >= static_cast<int>(_spans.size()))
        throw std::invalid_argument("span parent out of range");
    _spans.push_back(SpanRecord{name, start, end, parent, job});
    return static_cast<int>(_spans.size()) - 1;
}

int
Tracer::open(const char *name, double start)
{
    int index = record(name, start, start, current(), _job);
    _open.push_back(index);
    return index;
}

void
Tracer::close(int index, double end)
{
    auto it = std::find(_open.rbegin(), _open.rend(), index);
    if (it != _open.rend())
        _open.erase(std::next(it).base());
    _spans[index].end = end;
}

std::map<std::string, double>
Tracer::selfTimes(std::size_t from, std::size_t to) const
{
    to = std::min(to, _spans.size());
    std::vector<std::vector<int>> children(_spans.size());
    for (std::size_t i = from; i < to; ++i) {
        if (_spans[i].parent >= 0)
            children[_spans[i].parent].push_back(static_cast<int>(i));
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < to; ++i) {
        const SpanRecord &s = _spans[i];
        std::vector<int> &kids = children[i];
        std::sort(kids.begin(), kids.end(), [this](int a, int b) {
            return _spans[a].start < _spans[b].start;
        });
        // Union of the children's intervals, clipped to this span.
        double covered = 0.0;
        double reach = s.start;
        for (int k : kids) {
            double lo = std::max(_spans[k].start, reach);
            double hi = std::min(_spans[k].end, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

std::map<std::string, std::uint64_t>
Tracer::counts(std::size_t from, std::size_t to) const
{
    std::map<std::string, std::uint64_t> n;
    for (std::size_t i = from; i < std::min(to, _spans.size()); ++i)
        ++n[_spans[i].name];
    return n;
}

void
Tracer::writeChromeTrace(std::ostream &os, const std::string &other_data,
                         std::size_t from, std::size_t to) const
{
    os << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": " << other_data
       << ",\n\"traceEvents\": [\n"
       << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 1, \"args\": {\"name\": \"perfbench\"}}";
    for (std::size_t i = from; i < std::min(to, _spans.size()); ++i) {
        const SpanRecord &s = _spans[i];
        os << ",\n{\"name\": " << quote(s.name) << ", \"cat\": "
           << quote(layerOf(s.name))
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << num(s.start * 1e6) << ", \"dur\": "
           << num((s.end - s.start) * 1e6) << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << ", \"job\": " << s.job
           << "}}";
    }
    os << "\n]}\n";
}

Span::Span(Tracer &tracer, const char *name)
    : _tracer(tracer), _start(tracer.now())
{
    if (_tracer.recording())
        _index = _tracer.open(name, _start);
}

double
Span::stop()
{
    if (_seconds < 0.0) {
        double end = _tracer.now();
        _seconds = end - _start;
        if (_index >= 0)
            _tracer.close(_index, end);
    }
    return _seconds;
}

std::string
layerOf(const std::string &span_name)
{
    std::size_t dot = span_name.rfind('.');
    return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
