/**
 * @file
 * The benchmark's metrics: their names, units and directions (kept in
 * step with BENCHMARK.json by a test), and how each is derived from
 * the passes of a run.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <string>
#include <vector>

#include "grids.hh"
#include "tracer.hh"

namespace perfbench
{

struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *better;  ///< "lower" or "higher"
};

/** End-to-end metrics: printed by untraced runs. */
const std::vector<MetricSpec> &endToEndSpecs();
/** Per-layer metrics: printed by traced runs. */
const std::vector<MetricSpec> &perLayerSpecs();

struct MetricValue
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty). */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/**
 * The quantile of a step's nominal time over a run's passes that the
 * benchmark reports: the median. Calibration (calib.hh) takes out the
 * host's changing share of the core, which moves a step's host time
 * by up to 2x; what remains is spread thinly around one value.
 */
constexpr double kStepQuantile = 0.5;

/** Speed factors of one pass (calib.hh): one per step, and the pass's
 * own, its steps' nominal over host seconds, for the time between
 * steps. */
struct PassSpeed
{
    std::vector<double> steps;
    double pass = 1.0;
};

PassSpeed passSpeed(const PassResult &pass);

/**
 * A run's typical pass, built step by step in nominal seconds: each
 * step's time is its host time times its speed factor, and its
 * estimate is the kStepQuantile quantile of that over the run's
 * passes; a total is the sum over steps. Calibration timings are not
 * part of any total.
 */
struct PassEstimate
{
    double wallS = 0.0;
    double setupS = 0.0;
    double simS = 0.0;
    double replayS = 0.0;
    double unprobedS = 0.0;  ///< wallS without traced-only probes
};

PassEstimate estimatePass(const std::vector<PassResult> &passes);

/** End-to-end metrics over the untraced passes of a run: times from
 * the estimated pass, instruction and record counts (the same on every
 * pass) over its times. */
std::vector<MetricValue> endToEnd(const std::vector<PassResult> &passes,
                                  double peak_rss_mb);

/**
 * Per-layer metrics over the traced passes of a run (their spans live
 * in `tracer`), and the `untraced` passes run alternately with them
 * for the tracing overhead. Times are per-pass self times (span minus
 * its children) in nominal seconds, by the pass's own speed factor,
 * medians over passes; counts are exact. A metric whose layer the
 * workload never calls reads 0.
 */
std::vector<MetricValue> perLayer(const std::vector<PassResult> &traced,
                                  const Tracer &tracer,
                                  const std::vector<PassResult> &untraced);

/** Per-layer self host seconds of one traced pass, by layer name. */
std::vector<std::pair<std::string, double>>
layerSelfTimes(const PassResult &pass, const Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
