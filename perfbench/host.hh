/**
 * @file
 * What a result was measured on: the host fingerprint recorded with
 * every run, the release-build guard, and the process's peak memory.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

namespace perfbench
{

/** True when assertions are compiled in: such a build is not timed. */
bool assertsEnabled();

/**
 * The host fingerprint as a JSON object literal: CPU model, online
 * CPUs, compiler, build type, the source commit (`commit`, "unknown"
 * when the sources are not a git checkout), the seed and whether it
 * was the default.
 */
std::string hostFingerprint(const std::string &commit,
                            unsigned long long seed, bool default_seed);

/** The process's peak resident set so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
