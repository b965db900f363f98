/**
 * @file
 * The benchmark program: one workload per process, single-threaded,
 * calling the library layers directly.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out PATH] [--workdir DIR] [--commit SHA]
 *
 * It runs cold passes of the workload until --seconds is spent (at
 * least three), checks every job's output, and prints as its last
 * stdout line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Untraced runs report the end-to-end metrics of the
 * passes' estimated pass (metrics.hh). Traced runs alternate untraced
 * and traced passes, report the per-layer metrics, and write the last
 * traced pass's spans as a Chrome trace-event file.
 * perfbench/README.md describes the metrics.
 */

#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "grids.hh"
#include "host.hh"
#include "metrics.hh"
#include "tracer.hh"

using namespace perfbench;

namespace
{

constexpr unsigned long long kDefaultSeed = 42;
constexpr std::size_t kMinPasses = 3;

struct Args
{
    std::string workload;
    unsigned long long seed = kDefaultSeed;
    bool defaultSeed = true;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string workdir = ".bench_build/tmp";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1]\n"
                 "                 [--trace-out PATH] [--workdir DIR]"
                 " [--commit SHA]\n"
                 "workloads: %s, %s, %s\n",
                 msg, kWorkloads[0], kWorkloads[1], kWorkloads[2]);
    std::exit(2);
}

unsigned long long
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage(("bad value for " + flag + ": '" + text + "'").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, v);
            a.defaultSeed = false;
        } else if (flag == "--seconds") {
            a.seconds = double(parseUnsigned(flag, v));
            if (a.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else if (flag == "--workdir") {
            a.workdir = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            usage(("unknown argument '" + flag + "'").c_str());
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || a.workload == w;
    if (!known)
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (a.traceOut.empty())
        a.traceOut = ".bench_build/traces/" + a.workload + ".json";
    return a;
}

/** The first count that differs between two passes, or "". */
std::string
countsDiffer(const PassResult &a, const PassResult &b)
{
    if (a.simInsts != b.simInsts)
        return "simulated instructions";
    if (a.replayRecords != b.replayRecords)
        return "replayed trace records";
    for (const auto &[name, v] : a.counts) {
        auto it = b.counts.find(name);
        if (it == b.counts.end() || it->second != v)
            return name;
    }
    return a.counts.size() == b.counts.size() ? "" : "(count set)";
}

void
printPass(const char *kind, std::size_t n, const PassResult &p)
{
    PassEstimate m = estimatePass({p});
    std::printf("# pass %zu %s: wall %.3f s (host %.3f s, speed %.3f),"
                " setup %.4f s, sim %.3f MIPS, replay %.3f MIPS,"
                " jobs %llu, failed %llu\n",
                n, kind, m.wallS, p.wallS, passSpeed(p).pass, m.setupS,
                m.simS > 0 ? double(p.simInsts) / m.simS / 1e6 : 0.0,
                m.replayS > 0 ? double(p.replayRecords) / m.replayS / 1e6
                              : 0.0,
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
    for (const std::string &f : p.failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
}

std::string
selfTimeSummary(const std::vector<std::pair<std::string, double>> &layers)
{
    std::string json = "{";
    for (std::size_t i = 0; i < layers.size(); ++i) {
        json += (i ? ", " : "") + quote(layers[i].first) + ": " +
                num(layers[i].second);
    }
    return json + "}";
}

int
run(const Args &a)
{
    Sizes sizes;
    Tracer plain(false);
    Tracer traced(true);
    std::vector<PassResult> untracedPasses, tracedPasses;
    std::string host = hostFingerprint(a.commit, a.seed, a.defaultSeed);
    std::printf("# perfbench %s, seed %llu%s, %g s, trace %d\n",
                a.workload.c_str(), a.seed,
                a.defaultSeed ? " (default)" : "", a.seconds,
                a.trace ? 1 : 0);
    std::printf("# host %s\n", host.c_str());

    std::size_t serial = 0;
    auto pass = [&](Tracer &tr) {
        // Start every pass from a trimmed heap, as a fresh process
        // would: first-touch page faults then cost every pass alike,
        // instead of depending on what the last pass left mapped.
#ifdef __GLIBC__
        malloc_trim(0);
#endif
        std::string tmp = a.workdir + "/pass-" + std::to_string(getpid()) +
                          "-" + std::to_string(serial++);
        return runWorkload(a.workload, a.seed, sizes, tr, tmp);
    };
    // Untraced runs time passes until the budget would be overrun;
    // traced runs time (untraced, traced) pairs back to back.
    Clock::time_point start = Clock::now();
    std::vector<double> rounds;
    for (;;) {
        Clock::time_point t0 = Clock::now();
        untracedPasses.push_back(pass(plain));
        printPass("untraced", untracedPasses.size(), untracedPasses.back());
        if (a.trace) {
            tracedPasses.push_back(pass(traced));
            printPass("traced", tracedPasses.size(), tracedPasses.back());
        }
        Clock::time_point t1 = Clock::now();
        rounds.push_back(std::chrono::duration<double>(t1 - t0).count());
        double spent = std::chrono::duration<double>(t1 - start).count();
        std::size_t done = a.trace ? tracedPasses.size()
                                   : untracedPasses.size();
        if (done >= kMinPasses && spent + median(rounds) > a.seconds)
            break;
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *passes : {&untracedPasses, &tracedPasses}) {
        for (const PassResult &p : *passes) {
            attempted += p.attempted;
            failed += p.failed;
        }
    }
    // Exact counts must repeat on every pass of one seed.
    bool deterministic = true;
    for (const auto *passes : {&untracedPasses, &tracedPasses}) {
        for (const PassResult &p : *passes) {
            std::string diff = countsDiffer(passes->front(), p);
            if (!diff.empty()) {
                std::fprintf(stderr, "check failed: count '%s' differs "
                             "between passes of one seed\n", diff.c_str());
                deterministic = false;
            }
        }
    }

    std::vector<MetricValue> metrics;
    if (a.trace) {
        metrics = perLayer(tracedPasses, traced, untracedPasses);
        auto layers = layerSelfTimes(tracedPasses.back(), traced);
        std::printf("# self time by layer, last traced pass:");
        for (const auto &[layer, s] : layers)
            std::printf(" %s %.4f s;", layer.c_str(), s);
        std::printf("\n");
        std::filesystem::path out(a.traceOut);
        if (out.has_parent_path())
            std::filesystem::create_directories(out.parent_path());
        // The last traced pass: a whole pass, at a bounded file size.
        const PassResult &last = tracedPasses.back();
        std::ofstream os(out);
        traced.writeChromeTrace(
            os,
            "{\"workload\": " + quote(a.workload) + ", \"host\": " + host +
                ", \"selfTimeByLayer_s\": " + selfTimeSummary(layers) + "}",
            last.firstSpan, last.endSpan);
        os.flush();
        if (!os) {
            std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                         a.traceOut.c_str());
            return 1;
        }
        std::printf("# wrote %s (%zu spans)\n", a.traceOut.c_str(),
                    last.endSpan - last.firstSpan);
    } else {
        metrics = endToEnd(untracedPasses, peakRssMb());
    }

    std::string line = std::string("{\"correct\": ") +
                       (failed == 0 && deterministic ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", " : "") + quote(metrics[i].name) +
                ": {\"value\": " + num(metrics[i].value) +
                ", \"unit\": " + quote(metrics[i].unit) + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (assertsEnabled()) {
        std::fprintf(stderr, "perfbench: refusing to time an "
                     "assert-enabled build (configure with "
                     "-DCMAKE_BUILD_TYPE=Release)\n");
        return 2;
    }
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
