/**
 * @file
 * The benchmark's three workloads. Each runs as passes: one pass is a
 * cold set-up (generate, compile, reference-emulate, oracle labels)
 * followed by the workload's jobs, every one of them checked. All
 * library calls go through Spans, so the same code serves the
 * untraced run (end-to-end metrics) and the traced run (per-layer
 * metrics).
 *
 *  - fig6-detailed: the E7 grid, every program x {base, elim, oracle}
 *    on the contended machine + {base, elim} on the wide machine,
 *    full-program detailed simulation;
 *  - trace-studies: the E1-E5 and E4b trace-driven grids (deadness
 *    analysis, the fig3 hoist-off compile variant, and the predictor
 *    geometry, future-depth and zoo x budget sweeps); no core runs;
 *  - fuzz-lockstep: seeded fuzz programs, each under the lockstep
 *    oracle on base/UEB/squash/cluster x contended/wide plus the
 *    contended fast-forward variants.
 */

#ifndef PERFBENCH_GRIDS_HH
#define PERFBENCH_GRIDS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calib.hh"
#include "core/config.hh"
#include "tracer.hh"

namespace perfbench
{

/** Workload names, in BENCHMARK.json order. */
extern const char *const kWorkloads[3];

/** Input sizes of one pass. The defaults are the benchmark's; tests
 * shrink them. */
struct Sizes
{
    /** workloads::Params::scale of the fig6/trace-studies programs,
     * the eight of workloads::allWorkloads(). */
    unsigned scale = 4;
    /** Fuzzed programs per fuzz-lockstep pass. */
    unsigned fuzzPrograms = 400;
};

/** What a grid point is compared against when deriving metrics. */
enum class Role : std::uint8_t
{
    Base,     ///< no elimination: the baseline of its machine
    Elim,     ///< eliminating with the real predictor
    Oracle,   ///< eliminating with oracle labels
    Cluster,  ///< ineffectuality steering
};

/** One detailed-core configuration of a grid. The baseline of a
 * non-Base point is the Base point with the same machine and
 * fast-forward setting. */
struct CorePoint
{
    std::string name;
    Role role = Role::Base;
    bool contended = true;
    bool fastForward = false;
    dde::core::CoreConfig cfg;
};

std::vector<CorePoint> fig6Grid();
std::vector<CorePoint> fuzzGrid();

/** Counts of one detailed run. Filled from sim::RunStats in untraced
 * runs; traced runs tick the core themselves and fill every field. */
struct RunCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t fastForwarded = 0;
    std::uint64_t fetched = 0;
    std::uint64_t squashed = 0;
    std::uint64_t renameStalls = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t predictedDead = 0;
    std::uint64_t committedEliminated = 0;
    std::uint64_t deadMispredicts = 0;
    std::uint64_t verifyStallCycles = 0;
    std::uint64_t shadowExecs = 0;
    std::uint64_t physRegAllocs = 0;
    std::uint64_t steered = 0;
    std::uint64_t steeredWrong = 0;
    std::uint64_t bypassStalls = 0;
    std::uint64_t l1iAccesses = 0, l1iMisses = 0;
    std::uint64_t l1dAccesses = 0, l1dMisses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
};

/** One detailed run of a pass (traced passes only). */
struct CoreRun
{
    std::size_t program = 0;
    Role role = Role::Base;
    bool contended = true;
    bool fastForward = false;
    RunCounts counts;
    double seconds = 0.0;  ///< the sim.run span, construction included
    /** Same point under the lockstep oracle (fuzz-lockstep only). */
    double lockstepSeconds = 0.0;
};

/** One step of a pass: one program's set-up, or one job. Times are
 * host seconds. */
struct Step
{
    /** When the step started, on its tracer's clock. */
    double start = 0.0;
    double wallS = 0.0;
    /** In the calls sim_mips counts: runOnCore (fig6-detailed),
     * runLockstep (fuzz-lockstep), the reference emulator
     * (trace-studies, which runs no core). */
    double simS = 0.0;
    /** In the trace replays replay_mips counts: deadness::analyze,
     * predictor::evaluateOnTrace, sim::computeOracleLabels. */
    double replayS = 0.0;
    /** Traced-only plain core runs made beside a lockstep run, to
     * derive per-layer ratios; excluded from the tracing overhead. */
    double probeS = 0.0;
};

/** Everything one pass measured and checked. */
struct PassResult
{
    /** The whole pass: its steps, the calibration timings and the
     * little between them. */
    double wallS = 0.0;
    /** Set-up steps first (one per program), then one per job; the
     * same sequence on every pass of a run. */
    std::vector<Step> steps;
    std::size_t setupSteps = 0;
    std::uint64_t simInsts = 0;
    std::uint64_t replayRecords = 0;
    /** The calibration kernel's timings, taken between steps and once
     * after the last (calib.hh). Not part of any step. */
    std::vector<CalibSample> calib;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few messages

    /** Exact counts: identical on every pass of one seed. */
    std::map<std::string, double> counts;
    std::vector<CoreRun> coreRuns;
    /** The pass's spans: [firstSpan, endSpan) in its tracer. */
    std::size_t firstSpan = 0;
    std::size_t endSpan = 0;
};

/**
 * Run one pass of a workload. `tmp_dir` is a scratch directory the
 * pass may create and must leave removed (the result store and
 * report of the runner layer live there).
 */
PassResult runFig6(std::uint64_t seed, const Sizes &sizes,
                   const std::vector<CorePoint> &grid, Tracer &tracer,
                   const std::string &tmp_dir);
PassResult runFuzzLockstep(std::uint64_t seed, const Sizes &sizes,
                           const std::vector<CorePoint> &grid,
                           Tracer &tracer, const std::string &tmp_dir);

/** Dispatch by workload name; throws std::invalid_argument. */
PassResult runWorkload(const std::string &workload, std::uint64_t seed,
                       const Sizes &sizes, Tracer &tracer,
                       const std::string &tmp_dir);

} // namespace perfbench

#endif // PERFBENCH_GRIDS_HH
