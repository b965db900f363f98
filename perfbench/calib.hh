/**
 * @file
 * Host-speed calibration: how the benchmark turns host seconds into
 * nominal seconds.
 *
 * A virtual machine can share each core with another guest. How much
 * of the core the process gets then changes from second to second and
 * drifts over minutes: on the reference host (below), the same
 * detailed run takes anything from one to two times its best time. A
 * fixed calibration kernel, timed between the steps of a pass, reads
 * that share as it stands. It is the benchmark's own code, so no
 * library change moves it, and it was chosen because it slows down as
 * much as the detailed core does when the core is shared
 * (perfbench/README.md, "Noise on the reference host").
 *
 * A step's nominal seconds are its host seconds times its speed
 * factor: kNominalKernelSeconds over the kernel's time around the
 * step. On an unshared core of the reference host the factor is
 * about 1, so a nominal second is a second of a whole core there.
 */

#ifndef PERFBENCH_CALIB_HH
#define PERFBENCH_CALIB_HH

#include <vector>

namespace perfbench
{

/** One timing of the calibration kernel: when it started, on the
 * pass's tracer clock, and how long it took, both in seconds. */
struct CalibSample
{
    double at = 0.0;
    double seconds = 0.0;
};

/** Run the calibration kernel once; returns its host seconds. */
double runCalibrationKernel();

/**
 * The kernel's time on an unshared core of the reference host (a
 * 4-vCPU KVM guest on an Intel Xeon, family 6 model 143; g++ 12.2,
 * -O3) at its highest clock: its fastest timings there. It fixes the
 * unit of the reported times and nothing else.
 */
constexpr double kNominalKernelSeconds = 0.000334;

/** A pass times the kernel before a step once this long has passed
 * since its last timing, and once more when it ends. */
constexpr double kCalibGapS = 0.02;

/** A step's speed is read from the timings that started within this
 * margin of the step. */
constexpr double kCalibWindowS = 0.05;

/**
 * Nominal seconds per host second for a step that ran from `start` to
 * `end`: kNominalKernelSeconds over the median of the `samples` (in
 * time order) that started within kCalibWindowS of the step, and of
 * the last one that started before it, which a pass always takes.
 * Throws std::logic_error when there is no such last one.
 */
double speedFactor(const std::vector<CalibSample> &samples, double start,
                   double end);

} // namespace perfbench

#endif // PERFBENCH_CALIB_HH
