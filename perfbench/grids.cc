#include "grids.hh"

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>

#include "core/core.hh"
#include "deadness/analysis.hh"
#include "emu/emulator.hh"
#include "mir/compiler.hh"
#include "predictor/trace_eval.hh"
#include "predictor/zoo.hh"
#include "runner/fingerprint.hh"
#include "runner/runner.hh"
#include "runner/store.hh"
#include "sim/simulator.hh"
#include "verify/lockstep.hh"
#include "verify/progfuzz.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace dde;

const char *const kWorkloads[3] = {"fig6-detailed", "trace-studies",
                                   "fuzz-lockstep"};

namespace
{

using Labels = std::vector<std::vector<bool>>;

/** An output check that failed; it fails its job. */
struct CheckFailed : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw CheckFailed(what);
}

/** Generous enough that only a hang exhausts it (as bench/fuzz_diff). */
Cycle
cycleBudget(std::uint64_t ref_insts)
{
    return 100'000 + 30 * ref_insts;
}

/** Emulator instruction cap for fuzzed programs, which terminate by
 * construction. */
constexpr std::uint64_t kFuzzEmuCap = 5'000'000;


/** Time the calibration kernel now if the pass's last timing is
 * kCalibGapS old or `always` is set (calib.hh). */
void
calibrate(Tracer &tr, PassResult &res, bool always)
{
    double now = tr.now();
    if (!always && !res.calib.empty() &&
        now - res.calib.back().at < kCalibGapS)
        return;
    Span span(tr, "bench.calibrate");
    res.calib.push_back({now, runCalibrationKernel()});
}

/** Start the pass's next step, calibrating first when it is due. */
Step &
openStep(Tracer &tr, PassResult &res)
{
    calibrate(tr, res, false);
    Step &step = res.steps.emplace_back();
    step.start = tr.now();
    return step;
}

/**
 * Per-pass harness: job accounting, and the runner layer's part —
 * every job's row is saved to a fresh store and loaded back, and the
 * pass's report is written, all inside the pass's scratch directory,
 * which it removes again.
 */
class Harness
{
  public:
    Harness(Tracer &tracer, const std::string &tmp_dir, PassResult &res)
        : _tr(tracer), _res(res), _dir(tmp_dir), _store(storeAt(_dir))
    {
    }

    ~Harness()
    {
        std::error_code ec;
        fs::remove_all(_dir, ec);
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Run one checked job as the pass's next step: `body` makes the
     * layer call(s), throws on a failed check and fills the job's
     * result row. */
    template <typename Body>
    void
    job(const std::string &label, const std::string &fingerprint,
        Body &&body)
    {
        ++_res.attempted;
        Step &step = openStep(_tr, _res);
        _tr.beginJob();
        Span span(_tr, "bench.job");
        runner::JobResult row;
        row.label = label;
        try {
            body(row, step);
            row.ok = true;
            roundTrip(label + "|" + fingerprint, row);
        } catch (const std::exception &e) {
            row.ok = false;
            row.error = e.what();
            ++_res.failed;
            if (_res.failures.size() < 8)
                _res.failures.push_back(label + ": " + e.what());
        }
        _report.results.push_back(std::move(row));
        step.wallS = span.stop();
        _tr.endJob();
    }

    /** Write the pass's report (the runner layer's last step). */
    void
    writeReport()
    {
        Span span(_tr, "runner.report_write");
        std::ofstream os(_dir + "/report.json");
        _report.writeJson(os);
        os.flush();
        if (!os)
            throw std::runtime_error("cannot write the pass report");
    }

  private:
    static runner::StoreOptions
    storeAt(const std::string &dir)
    {
        runner::StoreOptions opts;
        opts.dir = dir + "/store";
        return opts;
    }

    void
    roundTrip(const std::string &key, const runner::JobResult &row)
    {
        {
            Span span(_tr, "runner.store_save");
            _store.save(key, row);
        }
        std::optional<runner::JobResult> back;
        {
            Span span(_tr, "runner.store_load");
            back = _store.load(key);
        }
        _res.counts["runner.store_entries"] += 1;
        Span span(_tr, "runner.row");
        const std::string &v = _store.version();
        check(back && runner::ResultStore::renderEntry(v, key, *back) ==
                          runner::ResultStore::renderEntry(v, key, row),
              "result row did not round-trip through the store");
    }

    Tracer &_tr;
    PassResult &_res;
    std::string _dir;
    runner::ResultStore _store;
    runner::SweepReport _report;
};

/** A generated, compiled and reference-emulated program. */
struct Program
{
    std::string name;
    prog::Program program;
    emu::RunResult ref;
    Labels labels;
};

/** Reference-emulate `p` with its trace; returns the seconds taken. */
double
emulate(Tracer &tr, PassResult &res, Program &p, std::uint64_t cap)
{
    Span span(tr, "emu.run");
    p.ref = emu::runProgram(p.program, cap, true);
    res.counts["emu.insts"] += double(p.ref.instCount);
    return span.stop();
}

/** Sum one detailed run into the pass's exact counts. */
void
addRun(PassResult &res, const CorePoint &point, const RunCounts &c)
{
    auto &n = res.counts;
    n["sim.runs"] += 1;
    n["core.cycles"] += double(c.cycles);
    n["core.committed"] += double(c.committed);
    n["core.fetched"] += double(c.fetched);
    n["core.squashed"] += double(c.squashed);
    n["core.rename_stalls"] += double(c.renameStalls);
    n["core.idle_cycles"] += double(c.idleCycles);
    n["core.phys_reg_allocs"] += double(c.physRegAllocs);
    n["cache.l1i_accesses"] += double(c.l1iAccesses);
    n["cache.l1i_misses"] += double(c.l1iMisses);
    n["cache.l1d_accesses"] += double(c.l1dAccesses);
    n["cache.l1d_misses"] += double(c.l1dMisses);
    n["cache.l2_accesses"] += double(c.l2Accesses);
    n["cache.l2_misses"] += double(c.l2Misses);
    n["emu.insts"] += double(c.fastForwarded);
    if (point.role == Role::Elim || point.role == Role::Oracle) {
        n["core.elim.predicted_dead"] += double(c.predictedDead);
        n["core.elim.committed_eliminated"] +=
            double(c.committedEliminated);
        n["core.elim.dead_mispredicts"] += double(c.deadMispredicts);
        n["core.elim.verify_stall_cycles"] +=
            double(c.verifyStallCycles);
        n["core.elim.shadow_execs"] += double(c.shadowExecs);
    }
    if (point.role == Role::Cluster) {
        n["core.cluster.steered"] += double(c.steered);
        n["core.cluster.steered_wrong"] += double(c.steeredWrong);
        n["core.cluster.bypass_stalls"] += double(c.bypassStalls);
    }
}

void
fillRow(runner::JobResult &row, const RunCounts &c)
{
    row.add(runner::Metric("cycles", c.cycles));
    row.add(runner::Metric("committed", c.committed));
    row.add(runner::Metric("fastForwarded", c.fastForwarded));
    row.add(runner::Metric("committedEliminated", c.committedEliminated));
    row.add(runner::Metric("predictedDead", c.predictedDead));
    row.add(runner::Metric("physRegAllocs", c.physRegAllocs));
    row.add(runner::Metric(
        "ipc", c.cycles ? double(c.committed) / double(c.cycles) : 0.0));
}

/**
 * The traced run's detailed simulation: what sim::runOnCore does,
 * with the core constructed and ticked here so construction and
 * ticking are timed apart, and the counters the idle-cycle fraction
 * needs are read after every tick.
 */
sim::SimResult
tickedRun(Tracer &tr, const prog::Program &program,
          const core::CoreConfig &cfg, std::uint64_t ff_insts,
          const Labels *labels, Cycle max_cycles, RunCounts &c,
          double &seconds)
{
    Span run(tr, "sim.run");
    std::unique_ptr<emu::Checkpoint> resume;
    if (ff_insts != 0) {
        Span span(tr, "emu.fast_forward");
        emu::Emulator ff(program);
        c.fastForwarded = ff.fastForward(ff_insts);
        resume = std::make_unique<emu::Checkpoint>(ff.checkpoint());
    }
    std::unique_ptr<core::Core> core;
    {
        Span span(tr, "core.construct");
        core = std::make_unique<core::Core>(program, cfg, resume.get());
    }
    if (cfg.elim.enable && cfg.elim.oraclePredictor) {
        if (!labels || resume)
            throw std::logic_error("oracle points need full-run labels");
        core->setOracleLabels(*labels);
    }
    const stats::Group &g = core->stats();
    {
        // A cycle is idle when none of these moved during it.
        const stats::Counter *activity[] = {
            &g.lookupCounter("fetched"),
            &g.lookupCounter("renamed"),
            &g.lookupCounter("issued"),
            &g.lookupCounter("committed"),
            &g.lookupCounter("rfWrites"),
            &g.lookupCounter("squashedInsts"),
            &g.lookupCounter("committedEliminated"),
        };
        auto moved = [&activity] {
            std::uint64_t sum = 0;
            for (const stats::Counter *a : activity)
                sum += a->value();
            return sum;
        };
        Span span(tr, "core.tick");
        std::uint64_t last = moved();
        while (!core->halted() && core->cycles() < max_cycles) {
            core->tick();
            std::uint64_t now = moved();
            c.idleCycles += now == last;
            last = now;
        }
    }
    auto v = [&g](const char *name) {
        return g.lookupCounter(name).value();
    };
    c.cycles = core->cycles();
    c.committed = core->committedInsts();
    c.fetched = v("fetched");
    c.squashed = v("squashedInsts");
    c.renameStalls = v("renameStallRob") + v("renameStallIq") +
                     v("renameStallLsq") + v("renameStallPhys");
    c.predictedDead = v("predictedDead");
    c.committedEliminated = v("committedEliminated");
    c.deadMispredicts = v("deadMispredicts");
    c.verifyStallCycles = v("verifyStallCycles");
    c.shadowExecs = v("shadowExecs");
    c.physRegAllocs = v("physRegAllocs");
    c.steered = v("clusterSteered");
    c.steeredWrong = v("clusterSteeredWrong");
    c.bypassStalls = v("clusterBypassStalls");
    cache::Hierarchy &caches = core->caches();
    c.l1iAccesses = caches.l1i().accesses();
    c.l1iMisses = caches.l1i().misses();
    c.l1dAccesses = caches.l1d().accesses();
    c.l1dMisses = caches.l1d().misses();
    c.l2Accesses = caches.l2().accesses();
    c.l2Misses = caches.l2().misses();

    sim::SimResult r;
    r.halted = core->halted();
    r.cyclesExhausted = !r.halted;
    r.output = core->output();
    r.memory = core->memoryState();
    seconds = run.stop();
    return r;
}

/** One detailed run of `point`: sim::runOnCore when untraced, the
 * ticked mirror when traced. */
sim::SimResult
detailedRun(Tracer &tr, const Program &p, const CorePoint &point,
            RunCounts &c, double &seconds)
{
    std::uint64_t ff = point.fastForward ? p.ref.instCount / 2 : 0;
    Cycle max_cycles = cycleBudget(p.ref.instCount);
    const Labels *labels = p.labels.empty() ? nullptr : &p.labels;
    if (tr.recording()) {
        return tickedRun(tr, p.program, point.cfg, ff, labels, max_cycles,
                         c, seconds);
    }
    sim::RunOptions opts;
    opts.maxCycles = max_cycles;
    opts.oracleLabels = labels;
    opts.fastForwardInsts = ff;
    Span span(tr, "sim.run");
    sim::SimResult r = sim::runOnCore(p.program, point.cfg, opts);
    seconds = span.stop();
    const sim::RunStats &s = r.stats;
    c.cycles = s.cycles;
    c.committed = s.committed;
    c.fastForwarded = s.fastForwarded;
    c.predictedDead = s.predictedDead;
    c.committedEliminated = s.committedEliminated;
    c.deadMispredicts = s.deadMispredicts;
    c.physRegAllocs = s.physRegAllocs;
    c.steered = s.clusterSteered;
    c.steeredWrong = s.clusterSteeredWrong;
    c.bypassStalls = s.clusterBypassStalls;
    return r;
}

void
checkHalted(const sim::SimResult &r, const emu::RunResult &ref)
{
    check(r.halted && !r.cyclesExhausted,
          "detailed run did not halt within its cycle limit");
    check(sim::observablyEqual(r, ref),
          "final memory or output differ from the emulator's");
}

std::vector<std::string>
fingerprints(Tracer &tr, const std::vector<CorePoint> &grid)
{
    Span span(tr, "runner.row");
    std::vector<std::string> out;
    for (const CorePoint &p : grid) {
        out.push_back(runner::fingerprint(p.cfg) +
                      (p.fastForward ? "|ff" : ""));
    }
    return out;
}

core::CoreConfig
withElim(core::CoreConfig cfg, core::RecoveryMode recovery)
{
    cfg.elim.enable = true;
    cfg.elim.recovery = recovery;
    return cfg;
}

core::CoreConfig
withCluster(core::CoreConfig cfg)
{
    cfg.cluster.enable = true;
    return cfg;
}

struct TraceVariant
{
    std::string label;
    predictor::TraceEvalConfig cfg;
};

/** E4 (tab1 geometry), E5 (fig4 future depth) and E4b (zoo x budget)
 * configurations, as bench/tab1_predictor_sweep, bench/fig4_future_cf
 * and bench/tab1_pareto define them. */
std::vector<TraceVariant>
traceVariants()
{
    std::vector<TraceVariant> v;
    for (unsigned entries : {256u, 512u, 1024u, 2048u, 4096u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.entries = entries;
        v.push_back({"tab1/entries" + std::to_string(entries), cfg});
    }
    for (unsigned tag : {0u, 4u, 8u, 12u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.tagBits = tag;
        v.push_back({"tab1/tag" + std::to_string(tag), cfg});
    }
    for (unsigned thr : {1u, 2u, 3u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.threshold = thr;
        v.push_back({"tab1/threshold" + std::to_string(thr), cfg});
    }
    for (unsigned depth : {0u, 1u, 2u, 4u, 6u, 8u, 12u, 16u}) {
        predictor::TraceEvalConfig cfg;
        cfg.predictor.futureDepth = depth;
        v.push_back({"fig4/depth" + std::to_string(depth), cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.oracleFuture = true;
        v.push_back({"fig4/oracle-future", cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.frontend.direction = predictor::DirectionPredictor::Tournament;
        v.push_back({"fig4/tournament", cfg});
    }
    {
        predictor::TraceEvalConfig cfg;
        cfg.lastOutcomeBaseline = true;
        v.push_back({"fig4/last-outcome", cfg});
    }
    for (std::uint64_t budget : {20480u, 40960u}) {
        for (unsigned depth : {4u, 8u}) {
            for (predictor::DeadPredictorKind kind : predictor::kAllKinds) {
                auto fit = predictor::fitBudget(kind, budget, depth);
                predictor::TraceEvalConfig cfg;
                cfg.predictor = fit.paper;
                cfg.zoo = fit.zoo;
                v.push_back({std::string("pareto/") +
                                 predictor::kindName(kind) + "/" +
                                 std::to_string(budget) + "b/depth" +
                                 std::to_string(depth),
                             cfg});
            }
        }
    }
    return v;
}

} // namespace

std::vector<CorePoint>
fig6Grid()
{
    using core::CoreConfig;
    core::CoreConfig elim_c = CoreConfig::contended();
    elim_c.elim.enable = true;
    core::CoreConfig oracle_c = elim_c;
    oracle_c.elim.oraclePredictor = true;
    core::CoreConfig elim_w = CoreConfig::wide();
    elim_w.elim.enable = true;
    return {
        {"base-cont", Role::Base, true, false, CoreConfig::contended()},
        {"elim-cont", Role::Elim, true, false, elim_c},
        {"oracle-cont", Role::Oracle, true, false, oracle_c},
        {"base-wide", Role::Base, false, false, CoreConfig::wide()},
        {"elim-wide", Role::Elim, false, false, elim_w},
    };
}

std::vector<CorePoint>
fuzzGrid()
{
    using core::CoreConfig;
    using core::RecoveryMode;
    std::vector<CorePoint> grid;
    for (bool contended : {true, false}) {
        CoreConfig m =
            contended ? CoreConfig::contended() : CoreConfig::wide();
        std::string sfx = contended ? "-cont" : "-wide";
        grid.push_back({"base" + sfx, Role::Base, contended, false, m});
        grid.push_back({"ueb" + sfx, Role::Elim, contended, false,
                        withElim(m, RecoveryMode::UebRepair)});
        grid.push_back({"squash" + sfx, Role::Elim, contended, false,
                        withElim(m, RecoveryMode::SquashProducer)});
        grid.push_back({"cluster" + sfx, Role::Cluster, contended, false,
                        withCluster(m)});
    }
    // The contended fast-forward variants: the functional handoff.
    CoreConfig m = CoreConfig::contended();
    grid.push_back({"base-cont-ff", Role::Base, true, true, m});
    grid.push_back({"ueb-cont-ff", Role::Elim, true, true,
                    withElim(m, RecoveryMode::UebRepair)});
    grid.push_back({"squash-cont-ff", Role::Elim, true, true,
                    withElim(m, RecoveryMode::SquashProducer)});
    grid.push_back({"cluster-cont-ff", Role::Cluster, true, true,
                    withCluster(m)});
    return grid;
}

PassResult
runFig6(std::uint64_t seed, const Sizes &sizes,
        const std::vector<CorePoint> &grid, Tracer &tr,
        const std::string &tmp_dir)
{
    PassResult res;
    res.firstSpan = tr.spans().size();
    Span pass(tr, "bench.pass");
    Harness harness(tr, tmp_dir, res);

    const CorePoint *oracle = nullptr;
    for (const CorePoint &p : grid) {
        if (p.cfg.elim.enable && p.cfg.elim.oraclePredictor)
            oracle = &p;
    }
    std::vector<Program> progs;
    {
        Span setup(tr, "bench.setup");
        for (const auto &info : workloads::allWorkloads()) {
            Step &step = openStep(tr, res);
            Program p;
            p.name = info.name;
            workloads::Params params;
            params.seed = seed;
            params.scale = sizes.scale;
            mir::Module module;
            {
                Span span(tr, "workloads.make");
                module = info.make(params);
            }
            {
                Span span(tr, "mir.compile");
                p.program = mir::compile(std::move(module),
                                         sim::referenceCompileOptions());
            }
            emulate(tr, res, p, 100'000'000);
            if (oracle) {
                Span span(tr, "sim.oracle_labels");
                p.labels = sim::computeOracleLabels(
                    p.program, p.ref.trace, oracle->cfg.elim.detector);
                step.replayS += span.stop();
                res.replayRecords += p.ref.trace.size();
            }
            progs.push_back(std::move(p));
            step.wallS = tr.now() - step.start;
        }
    }
    res.setupSteps = res.steps.size();
    res.counts["mir.compiles"] = double(progs.size());

    std::vector<std::string> fps = fingerprints(tr, grid);
    for (std::size_t i = 0; i < progs.size(); ++i) {
        const Program &p = progs[i];
        for (std::size_t k = 0; k < grid.size(); ++k) {
            const CorePoint &point = grid[k];
            harness.job(p.name + "/" + point.name, fps[k],
                        [&](runner::JobResult &row, Step &step) {
                RunCounts c;
                double seconds = 0.0;
                sim::SimResult r = detailedRun(tr, p, point, c, seconds);
                step.simS += seconds;
                res.simInsts += c.committed + c.fastForwarded;
                checkHalted(r, p.ref);
                addRun(res, point, c);
                if (tr.recording())
                    res.coreRuns.push_back({i, point.role, point.contended,
                                            point.fastForward, c, seconds,
                                            0.0});
                fillRow(row, c);
            });
        }
    }
    harness.writeReport();
    calibrate(tr, res, true);
    res.wallS = pass.stop();
    res.endSpan = tr.spans().size();
    return res;
}

namespace
{

PassResult
runTraceStudies(std::uint64_t seed, const Sizes &sizes, Tracer &tr,
                const std::string &tmp_dir)
{
    PassResult res;
    res.firstSpan = tr.spans().size();
    Span pass(tr, "bench.pass");
    Harness harness(tr, tmp_dir, res);

    // Each program compiled twice: the reference options, and the
    // fig3 (c) ablation with the hoisting scheduler off.
    mir::CompileOptions ref_opts = sim::referenceCompileOptions();
    mir::CompileOptions off_opts = ref_opts;
    off_opts.hoist.enabled = false;
    std::vector<Program> progs;  // [2i] reference, [2i+1] hoist off
    {
        Span setup(tr, "bench.setup");
        for (const auto &info : workloads::allWorkloads()) {
            Step &step = openStep(tr, res);
            workloads::Params params;
            params.seed = seed;
            params.scale = sizes.scale;
            mir::Module module;
            {
                Span span(tr, "workloads.make");
                module = info.make(params);
            }
            for (const mir::CompileOptions *opts : {&ref_opts, &off_opts}) {
                Program p;
                p.name = info.name + (opts == &off_opts ? "/hoist-off" : "");
                {
                    Span span(tr, "mir.compile");
                    p.program = mir::compile(module, *opts);
                }
                step.simS += emulate(tr, res, p, 100'000'000);
                res.simInsts += p.ref.instCount;
                progs.push_back(std::move(p));
            }
            step.wallS = tr.now() - step.start;
        }
    }
    res.setupSteps = res.steps.size();
    res.counts["mir.compiles"] = double(progs.size());

    std::string ref_fp, off_fp;
    std::vector<TraceVariant> variants = traceVariants();
    std::vector<std::string> fps;
    {
        Span span(tr, "runner.row");
        ref_fp = runner::fingerprint(ref_opts);
        off_fp = runner::fingerprint(off_opts);
        for (const TraceVariant &v : variants)
            fps.push_back(runner::fingerprint(v.cfg));
    }

    // E1 (fig1), E2 (fig2) and E3 (fig3, both compile variants): one
    // deadness analysis per bench and program, as the benches run.
    struct AnalysisJob
    {
        std::string bench;
        bool hoistOff;
    };
    const AnalysisJob analyses[] = {
        {"fig1", false}, {"fig2", false}, {"fig3", false}, {"fig3", true}};
    for (const AnalysisJob &a : analyses) {
        for (std::size_t i = 0; i < progs.size(); i += 2) {
            const Program &p = progs[i + (a.hoistOff ? 1 : 0)];
            harness.job(a.bench + "/" + p.name,
                        a.hoistOff ? off_fp : ref_fp,
                        [&](runner::JobResult &row, Step &step) {
                Span span(tr, "deadness.analyze");
                deadness::Analysis an =
                    deadness::analyze(p.program, p.ref.trace);
                step.replayS += span.stop();
                res.replayRecords += p.ref.trace.size();
                check(an.dynTotal == p.ref.instCount,
                      "analysis covers a different instruction count");
                check(an.dynDead <= an.dynCandidates &&
                          an.firstLevelDead + an.transitiveDead ==
                              an.dynDead,
                      "first-level + transitive dead != dynDead");
                res.counts["deadness.records"] +=
                    double(p.ref.trace.size());
                res.counts["deadness.dead"] += double(an.dynDead);
                res.counts["deadness.total"] += double(an.dynTotal);
                row.add(runner::Metric("dynInsts", an.dynTotal));
                row.add(runner::Metric("deadFrac", an.deadFraction()));
                if (a.bench == "fig2") {
                    std::vector<double> curve = an.localityCurve(64);
                    std::size_t k = std::min<std::size_t>(8, curve.size());
                    row.add(runner::Metric("top8",
                                           k ? curve[k - 1] : 0.0));
                }
                if (a.bench == "fig3") {
                    auto cls = an.classifyStatics();
                    row.add(runner::Metric("partial", cls.partiallyDead));
                    row.add(runner::Metric("dynFromPartial",
                                           cls.dynFromPartial));
                }
            });
        }
    }

    // E4, E5 and E4b: the predictor over every reference trace.
    for (std::size_t k = 0; k < variants.size(); ++k) {
        const TraceVariant &v = variants[k];
        for (std::size_t i = 0; i < progs.size(); i += 2) {
            const Program &p = progs[i];
            harness.job(v.label + "/" + p.name, fps[k],
                        [&](runner::JobResult &row, Step &step) {
                Span span(tr, "predictor.eval");
                predictor::TraceEvalResult r = predictor::evaluateOnTrace(
                    p.program, p.ref.trace, v.cfg);
                step.replayS += span.stop();
                res.replayRecords += p.ref.trace.size();
                check(r.labeledDead + r.labeledLive + r.unresolved ==
                          r.candidates,
                      "labeled dead + live + unresolved != candidates");
                check(r.dynTotal == p.ref.instCount,
                      "evaluation covers a different instruction count");
                res.counts["predictor.records"] +=
                    double(p.ref.trace.size());
                res.counts["predictor.true_positives"] +=
                    double(r.truePositives);
                res.counts["predictor.false_positives"] +=
                    double(r.falsePositives);
                res.counts["predictor.labeled_dead"] +=
                    double(r.labeledDead);
                row.add(runner::Metric("truePositives", r.truePositives));
                row.add(runner::Metric("falsePositives", r.falsePositives));
                row.add(runner::Metric("labeledDead", r.labeledDead));
            });
        }
    }
    harness.writeReport();
    calibrate(tr, res, true);
    res.wallS = pass.stop();
    res.endSpan = tr.spans().size();
    return res;
}

} // namespace

PassResult
runFuzzLockstep(std::uint64_t seed, const Sizes &sizes,
                const std::vector<CorePoint> &grid, Tracer &tr,
                const std::string &tmp_dir)
{
    PassResult res;
    res.firstSpan = tr.spans().size();
    Span pass(tr, "bench.pass");
    Harness harness(tr, tmp_dir, res);

    std::vector<Program> progs;
    {
        Span setup(tr, "bench.setup");
        for (unsigned i = 0; i < sizes.fuzzPrograms; ++i) {
            Step &step = openStep(tr, res);
            Program p;
            p.name = "fuzz" + std::to_string(i);
            {
                Span span(tr, "verify.gen");
                p.program = verify::fuzzProgram(runner::deriveSeed(seed, i));
            }
            emulate(tr, res, p, kFuzzEmuCap);
            progs.push_back(std::move(p));
            step.wallS = tr.now() - step.start;
        }
    }
    res.setupSteps = res.steps.size();

    // One job per program: its deadness analysis, then the whole grid
    // under the lockstep oracle. A row per (program, point) would make
    // the store's file traffic most of this workload's time.
    std::string grid_fp;
    {
        Span span(tr, "runner.row");
        std::string all;
        for (const std::string &fp : fingerprints(tr, grid))
            all += fp + ";";
        grid_fp = std::to_string(runner::ResultStore::hashKey(all));
    }
    for (std::size_t i = 0; i < progs.size(); ++i) {
        const Program &p = progs[i];
        harness.job(p.name, grid_fp, [&](runner::JobResult &row, Step &step) {
            {
                Span span(tr, "deadness.analyze");
                deadness::Analysis an =
                    deadness::analyze(p.program, p.ref.trace);
                step.replayS += span.stop();
                res.replayRecords += p.ref.trace.size();
                check(an.dynTotal == p.ref.instCount,
                      "analysis covers a different instruction count");
                res.counts["deadness.records"] += double(p.ref.trace.size());
                res.counts["deadness.dead"] += double(an.dynDead);
                res.counts["deadness.total"] += double(an.dynTotal);
                row.add(runner::Metric("deadFrac", an.deadFraction()));
            }
            std::string divergence;
            for (const CorePoint &point : grid) {
                verify::LockstepOptions lo;
                lo.maxCycles = cycleBudget(p.ref.instCount);
                if (point.fastForward)
                    lo.fastForwardInsts = p.ref.instCount / 2;
                Span span(tr, "verify.lockstep");
                verify::LockstepResult ls =
                    verify::runLockstep(p.program, point.cfg, lo);
                double seconds = span.stop();
                step.simS += seconds;
                res.simInsts += ls.committed + ls.fastForwarded;
                res.counts["verify.jobs"] += 1;
                if (!ls.ok) {
                    res.counts["verify.divergences"] += 1;
                    if (divergence.empty()) {
                        divergence = point.name + ": " +
                                     ls.report.summary();
                    }
                    continue;
                }
                res.counts["verify.cycles"] += double(ls.cycles);
                res.counts["verify.committed"] += double(ls.committed);
                res.counts["verify.eliminated"] +=
                    double(ls.committedEliminated);
                row.add(runner::Metric(point.name + ".cycles", ls.cycles));
                row.add(runner::Metric(point.name + ".eliminated",
                                       ls.committedEliminated));
                if (tr.recording()) {
                    // A plain run of the same point, for the core's
                    // per-layer counts and the lockstep cost ratio.
                    Span probe(tr, "bench.probe");
                    RunCounts c;
                    double plain = 0.0;
                    sim::SimResult r = detailedRun(tr, p, point, c, plain);
                    step.probeS += probe.stop();
                    checkHalted(r, p.ref);
                    check(c.cycles == ls.cycles &&
                              c.committed == ls.committed,
                          point.name + ": plain and lockstep runs "
                                       "disagree on cycles");
                    addRun(res, point, c);
                    res.coreRuns.push_back({i, point.role, point.contended,
                                            point.fastForward, c, plain,
                                            seconds});
                }
            }
            check(divergence.empty(), "lockstep: " + divergence);
        });
    }
    harness.writeReport();
    calibrate(tr, res, true);
    res.wallS = pass.stop();
    res.endSpan = tr.spans().size();
    return res;
}

PassResult
runWorkload(const std::string &workload, std::uint64_t seed,
            const Sizes &sizes, Tracer &tracer, const std::string &tmp_dir)
{
    if (workload == kWorkloads[0])
        return runFig6(seed, sizes, fig6Grid(), tracer, tmp_dir);
    if (workload == kWorkloads[1])
        return runTraceStudies(seed, sizes, tracer, tmp_dir);
    if (workload == kWorkloads[2])
        return runFuzzLockstep(seed, sizes, fuzzGrid(), tracer, tmp_dir);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
