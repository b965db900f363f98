/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark wraps every call it makes into a library layer in a
 * Span. A span always measures its own duration (the untraced run
 * needs those durations for its end-to-end rates); only a recording
 * tracer also keeps it — name, start, end, parent and the id of the
 * job it belongs to — for the per-layer self-time summary and the
 * Chrome trace-event file written at exit.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One recorded layer call. Times are seconds since the tracer's
 * epoch; `parent` indexes the enclosing span (-1 for a root). */
struct SpanRecord
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t job = 0;  ///< 0 = outside any job
};

class Tracer
{
  public:
    /** `record` = keep spans (the traced run); otherwise spans only
     * time themselves. */
    explicit Tracer(bool record);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool recording() const { return _record; }

    /** Start a new job: spans opened until the next call carry its id. */
    std::uint64_t beginJob() { return _job = ++_lastJob; }
    void endJob() { _job = 0; }

    /** Seconds since the tracer was created. */
    double now() const;

    /**
     * Append a finished span directly (spans from another clock, and
     * tests that need exact timestamps). Returns its index.
     */
    int record(const char *name, double start, double end, int parent,
               std::uint64_t job);

    const std::vector<SpanRecord> &spans() const { return _spans; }

    /** Index of the innermost open span, -1 when none is open. */
    int current() const { return _open.empty() ? -1 : _open.back(); }

    /** Per span name: duration minus the part of its interval that
     * its child spans cover, summed over the spans with index in
     * [from, to). Children outside the range are not subtracted. */
    std::map<std::string, double>
    selfTimes(std::size_t from = 0, std::size_t to = SIZE_MAX) const;

    /** Per span name: number of spans with index in [from, to). */
    std::map<std::string, std::uint64_t>
    counts(std::size_t from = 0, std::size_t to = SIZE_MAX) const;

    /**
     * Write the spans with index in [from, to) as a Chrome trace-event
     * JSON document (complete "X" events, microseconds) that Perfetto
     * and chrome://tracing open. `other_data` is a JSON object literal
     * placed under the format's "otherData" key.
     */
    void writeChromeTrace(std::ostream &os, const std::string &other_data,
                          std::size_t from = 0,
                          std::size_t to = SIZE_MAX) const;

  private:
    friend class Span;
    int open(const char *name, double start);
    void close(int index, double end);

    bool _record;
    Clock::time_point _epoch;
    std::vector<SpanRecord> _spans;
    std::vector<int> _open;
    std::uint64_t _job = 0;
    std::uint64_t _lastJob = 0;
};

/**
 * RAII scope around one layer call. `name` must be a string literal
 * (the record keeps the pointer). Spans nest by construction when
 * they are scoped objects; stop() ends one early.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name);
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent); returns its duration in s. */
    double stop();

  private:
    Tracer &_tracer;
    double _start;
    double _seconds = -1.0;
    int _index = -1;
};

/** The layer a span name belongs to: the name up to its last dot
 * ("core.elim.verify" -> "core.elim", "sim.run" -> "sim"). */
std::string layerOf(const std::string &span_name);

/** Format a double exactly (shortest round-trip form); non-finite
 * values become 0 so the output stays valid JSON. */
std::string num(double v);

/** JSON string literal with the minimal escapes. */
std::string quote(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
