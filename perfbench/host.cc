#include "host.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "tracer.hh"

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench
{

namespace
{

/** The CPU's brand string, read with cpuid (no file access needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

} // namespace

bool
assertsEnabled()
{
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

std::string
hostFingerprint(const std::string &commit, unsigned long long seed,
                bool default_seed)
{
    long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    return std::string("{\"cpu\": ") + quote(cpuModel()) +
           ", \"nproc\": " + std::to_string(cpus) +
           ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
           ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
           ", \"asserts\": " + (assertsEnabled() ? "true" : "false") +
           ", \"commit\": " + quote(commit) +
           ", \"seed\": " + std::to_string(seed) +
           ", \"seed_is_default\": " + (default_seed ? "true" : "false") +
           "}";
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

} // namespace perfbench
