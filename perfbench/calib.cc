#include "calib.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <stdexcept>

#include "metrics.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

// Read at run time, so the compiler cannot fold or reshape the loop.
volatile int kernelIterations = 100'000;
volatile std::uint64_t kernelSink;

/**
 * Eight independent xorshift streams: integer work with no memory
 * traffic and as much instruction-level parallelism as the core
 * offers. Such code loses about as much as the detailed core does
 * when another guest shares the core, while a single dependent chain
 * hardly notices (README, "Noise on the reference host").
 */
[[gnu::noinline]] std::uint64_t
kernel(int iterations)
{
    std::uint64_t x[8];
    for (int s = 0; s < 8; ++s)
        x[s] = 88172645463325252ull + std::uint64_t(s);
    for (int i = 0; i < iterations; ++i) {
        for (int s = 0; s < 8; ++s) {
            x[s] ^= x[s] << 13;
            x[s] ^= x[s] >> 7;
            x[s] ^= x[s] << 17;
        }
    }
    std::uint64_t sum = 0;
    for (int s = 0; s < 8; ++s)
        sum += x[s];
    return sum;
}

} // namespace

double
runCalibrationKernel()
{
    int iterations = kernelIterations;
    Clock::time_point t0 = Clock::now();
    kernelSink = kernel(iterations);
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
speedFactor(const std::vector<CalibSample> &samples, double start,
            double end)
{
    auto by_time = [](const CalibSample &s, double t) { return s.at < t; };
    auto after = std::upper_bound(
        samples.begin(), samples.end(), start,
        [](double t, const CalibSample &s) { return t < s.at; });
    if (after == samples.begin())
        throw std::logic_error("no calibration timing before a step");
    auto lo = std::min(std::prev(after),
                       std::lower_bound(samples.begin(), samples.end(),
                                        start - kCalibWindowS, by_time));
    auto hi = std::lower_bound(after, samples.end(), end + kCalibWindowS,
                               by_time);
    std::vector<double> near;
    for (auto it = lo; it != hi; ++it)
        near.push_back(it->seconds);
    return kNominalKernelSeconds / median(near);
}

} // namespace perfbench
