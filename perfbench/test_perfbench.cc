/**
 * @file
 * Tests of the benchmark itself: span self time, the trace file, the
 * output checks (a deliberately broken core must fail them), seed
 * plumbing and exact-count determinism, host-speed calibration, and
 * agreement between the metric tables and BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "grids.hh"
#include "metrics.hh"
#include "tracer.hh"

using namespace perfbench;

namespace
{

std::string
scratchDir(const std::string &name)
{
    return (std::filesystem::current_path() / "perfbench-test-tmp" / name)
        .string();
}

/** Small inputs: the programs at scale 1, a handful of fuzz programs. */
Sizes
smallSizes()
{
    Sizes s;
    s.scale = 1;
    s.fuzzPrograms = 6;
    return s;
}

std::vector<CorePoint>
withSkippedVerify(std::vector<CorePoint> grid)
{
    for (CorePoint &p : grid) {
        if (p.cfg.elim.enable)
            p.cfg.elim.debugSkipVerifyPc = ~dde::Addr(0);
    }
    return grid;
}

} // namespace

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren)
{
    Tracer tr(true);
    int root = tr.record("bench.pass", 0.0, 10.0, -1, 0);
    int a = tr.record("sim.run", 1.0, 4.0, root, 1);
    tr.record("core.tick", 2.0, 3.0, a, 1);
    tr.record("sim.run", 5.0, 9.0, root, 2);
    // Overlaps its sibling and outlives its parent: only the part of
    // the parent's interval not already covered counts.
    tr.record("emu.run", 8.0, 12.0, root, 2);

    auto self = tr.selfTimes();
    EXPECT_DOUBLE_EQ(self["bench.pass"], 10.0 - (3.0 + 5.0));
    EXPECT_DOUBLE_EQ(self["sim.run"], (3.0 - 1.0) + 4.0);
    EXPECT_DOUBLE_EQ(self["core.tick"], 1.0);
    EXPECT_DOUBLE_EQ(self["emu.run"], 4.0);

    // A range sees only its own spans.
    auto part = tr.selfTimes(a, a + 2);
    EXPECT_EQ(part.count("bench.pass"), 0u);
    EXPECT_DOUBLE_EQ(part["sim.run"], 2.0);
    EXPECT_EQ(tr.counts(a, a + 2)["sim.run"], 1u);
}

TEST(Tracer, LiveSpansNestAndPartitionTheirParent)
{
    Tracer tr(true);
    double outer_s = 0.0;
    {
        Span outer(tr, "bench.job");
        {
            Span inner(tr, "core.tick");
            volatile double x = 0;
            for (int i = 0; i < 100000; ++i)
                x = x + i;
        }
        Span second(tr, "runner.store_save");
        second.stop();
        outer_s = outer.stop();
    }
    ASSERT_EQ(tr.spans().size(), 3u);
    EXPECT_EQ(tr.spans()[1].parent, 0);
    EXPECT_EQ(tr.spans()[2].parent, 0);
    double sum = 0.0;
    for (const auto &[name, s] : tr.selfTimes()) {
        EXPECT_GE(s, 0.0) << name;
        sum += s;
    }
    EXPECT_NEAR(sum, outer_s, 1e-9);
    EXPECT_EQ(layerOf("core.elim.verify"), "core.elim");
    EXPECT_EQ(layerOf("sim.run"), "sim");
}

TEST(Tracer, UnrecordedSpansStillTimeThemselves)
{
    Tracer tr(false);
    Span s(tr, "sim.run");
    EXPECT_GE(s.stop(), 0.0);
    EXPECT_TRUE(tr.spans().empty());
}

TEST(Tracer, ChromeTraceIsValidJson)
{
    Tracer tr(true);
    tr.beginJob();
    {
        Span a(tr, "sim.run");
        Span b(tr, "core.\"tick\"");
    }
    tr.endJob();
    std::ostringstream os;
    tr.writeChromeTrace(os, "{\"workload\": \"x\"}");
    dde::json::Value doc = dde::json::parse(os.str());
    EXPECT_EQ(doc.at("otherData").at("workload").asString(), "x");
    const auto &events = doc.at("traceEvents").items();
    ASSERT_EQ(events.size(), 3u);  // process name + two spans
    EXPECT_EQ(events[1].at("ph").asString(), "X");
    EXPECT_EQ(events[1].at("name").asString(), "sim.run");
    EXPECT_EQ(events[1].at("cat").asString(), "sim");
    EXPECT_EQ(events[2].at("args").at("parent").asInt(), 0);
    EXPECT_EQ(events[2].at("args").at("job").asUint(), 1u);
    EXPECT_GE(events[2].at("dur").asDouble(), 0.0);
}

TEST(Checks, CleanPassesHaveNoFailedJobs)
{
    Sizes sizes = smallSizes();
    for (const char *w : kWorkloads) {
        Tracer tr(false);
        PassResult p = runWorkload(w, 42, sizes, tr, scratchDir(w));
        EXPECT_GT(p.attempted, 0u) << w;
        EXPECT_EQ(p.failed, 0u) << w << ": "
                                << (p.failures.empty() ? ""
                                                       : p.failures[0]);
        EXPECT_FALSE(std::filesystem::exists(scratchDir(w))) << w;
    }
}

TEST(Checks, BrokenVerificationFailsFig6)
{
    Tracer tr(false);
    PassResult p = runFig6(42, smallSizes(), withSkippedVerify(fig6Grid()),
                           tr, scratchDir("fig6-broken"));
    EXPECT_GT(p.failed, 0u);
    EXPECT_LT(p.failed, p.attempted);  // baseline points stay clean
}

TEST(Checks, BrokenVerificationFailsLockstep)
{
    Tracer tr(false);
    PassResult p =
        runFuzzLockstep(42, smallSizes(), withSkippedVerify(fuzzGrid()), tr,
                        scratchDir("fuzz-broken"));
    EXPECT_GT(p.failed, 0u);
    ASSERT_FALSE(p.failures.empty());
    EXPECT_NE(p.failures[0].find("lockstep"), std::string::npos);
}

TEST(Seeds, ExactCountsRepeatForASeedAndMoveAcrossSeeds)
{
    Sizes sizes = smallSizes();
    Tracer tr(true);
    PassResult a = runFig6(7, sizes, fig6Grid(), tr, scratchDir("s1"));
    PassResult b = runFig6(7, sizes, fig6Grid(), tr, scratchDir("s2"));
    PassResult c = runFig6(8, sizes, fig6Grid(), tr, scratchDir("s3"));
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.simInsts, b.simInsts);
    EXPECT_NE(a.counts.at("core.cycles"), c.counts.at("core.cycles"));
    EXPECT_NE(a.counts.at("core.elim.committed_eliminated"),
              c.counts.at("core.elim.committed_eliminated"));
    EXPECT_NE(a.counts.at("cache.l1d_accesses"),
              c.counts.at("cache.l1d_accesses"));

    // The fuzz seed base follows the seed too.
    Tracer plain(false);
    PassResult f1 = runFuzzLockstep(7, sizes, fuzzGrid(), plain,
                                    scratchDir("f1"));
    PassResult f2 = runFuzzLockstep(8, sizes, fuzzGrid(), plain,
                                    scratchDir("f2"));
    EXPECT_NE(f1.counts.at("verify.cycles"), f2.counts.at("verify.cycles"));
}

TEST(Seeds, TracedCoreRunsMatchRunOnCore)
{
    Sizes sizes = smallSizes();
    Tracer plain(false), traced(true);
    PassResult u = runFig6(42, sizes, fig6Grid(), plain, scratchDir("u"));
    PassResult t = runFig6(42, sizes, fig6Grid(), traced, scratchDir("t"));
    for (const char *k : {"core.cycles", "core.committed", "sim.runs",
                          "core.elim.committed_eliminated",
                          "core.elim.predicted_dead",
                          "core.elim.dead_mispredicts",
                          "core.phys_reg_allocs"})
        EXPECT_EQ(u.counts.at(k), t.counts.at(k)) << k;
    EXPECT_EQ(u.simInsts, t.simInsts);
}

TEST(Calibration, SpeedFactorIsNominalOverTheMedianAroundAStep)
{
    const double k = kNominalKernelSeconds;

    // Timings every 20 ms; the host slows to half speed from 0.1 s on.
    std::vector<CalibSample> samples;
    for (int i = 0; i <= 20; ++i)
        samples.push_back({0.02 * i, i < 5 ? k : 2 * k});
    EXPECT_DOUBLE_EQ(speedFactor(samples, 0.02, 0.03), 1.0);
    EXPECT_DOUBLE_EQ(speedFactor(samples, 0.25, 0.3), 0.5);
    // Straddling the change: the median of the window decides.
    EXPECT_DOUBLE_EQ(speedFactor(samples, 0.051, 0.069), 1.0);  // 4 of 5 fast
    EXPECT_DOUBLE_EQ(speedFactor(samples, 0.101, 0.119), 0.5);  // 4 of 6 slow

    // Beyond the window, the last timing before the step still counts.
    std::vector<CalibSample> sparse = {{0.0, k}, {1.0, 4 * k}};
    EXPECT_DOUBLE_EQ(speedFactor(sparse, 0.2, 0.3), 1.0);
    EXPECT_DOUBLE_EQ(speedFactor(sparse, 0.2, 0.98), 0.4);  // 2.5k
    EXPECT_DOUBLE_EQ(speedFactor(sparse, 2.0, 3.0), 0.25);
    // A step with no timing before it is a bug in the pass.
    EXPECT_THROW(speedFactor(sparse, -1.0, -0.5), std::logic_error);
    EXPECT_THROW(speedFactor({}, 0.0, 1.0), std::logic_error);
}

TEST(Calibration, EstimateIsInNominalSeconds)
{
    const double k = kNominalKernelSeconds;
    // The same two steps, once on a whole core and once at half speed.
    auto pass = [k](double slowdown) {
        PassResult p;
        p.setupSteps = 1;
        double t = 0.0;
        for (double nominal : {0.5, 2.0}) {
            p.calib.push_back({t, slowdown * k});
            t += slowdown * k;
            Step s;
            s.start = t;
            s.wallS = slowdown * nominal;
            s.simS = s.wallS / 2;
            p.steps.push_back(s);
            t += s.wallS;
        }
        p.calib.push_back({t, slowdown * k});
        t += slowdown * k;
        // 0.25 nominal seconds outside any step or timing.
        p.wallS = t + slowdown * 0.25;
        return p;
    };
    PassResult fast = pass(1.0), slow = pass(2.0);
    EXPECT_DOUBLE_EQ(passSpeed(fast).pass, 1.0);
    EXPECT_DOUBLE_EQ(passSpeed(slow).pass, 0.5);
    for (const auto &passes : {std::vector<PassResult>{slow},
                               std::vector<PassResult>{fast, slow, slow}}) {
        PassEstimate m = estimatePass(passes);
        EXPECT_NEAR(m.wallS, 2.75, 1e-9);
        EXPECT_NEAR(m.setupS, 0.5, 1e-9);
        EXPECT_NEAR(m.simS, 1.25, 1e-9);
    }
}

TEST(Calibration, EveryPassIsTimedAroundItsSteps)
{
    Sizes sizes = smallSizes();
    for (const char *w : kWorkloads) {
        Tracer tr(true);
        PassResult p = runWorkload(w, 42, sizes, tr, scratchDir(w));
        ASSERT_GE(p.calib.size(), 2u) << w;
        ASSERT_FALSE(p.steps.empty()) << w;
        EXPECT_LE(p.calib.front().at, p.steps.front().start) << w;
        EXPECT_GE(p.calib.back().at,
                  p.steps.back().start + p.steps.back().wallS) << w;
        for (std::size_t i = 1; i < p.calib.size(); ++i)
            EXPECT_LE(p.calib[i - 1].at, p.calib[i].at) << w;
        // Timings lie outside every step.
        for (const CalibSample &c : p.calib) {
            for (const Step &s : p.steps) {
                EXPECT_FALSE(c.at > s.start && c.at < s.start + s.wallS)
                    << w;
            }
        }
        EXPECT_EQ(tr.counts()["bench.calibrate"], p.calib.size()) << w;
    }
}

TEST(Metrics, EveryMetricIsDerivedOnEveryWorkload)
{
    Sizes sizes = smallSizes();
    for (const char *w : kWorkloads) {
        Tracer plain(false), traced(true);
        std::vector<PassResult> u, t;
        for (int i = 0; i < 2; ++i) {
            u.push_back(runWorkload(w, 42, sizes, plain, scratchDir(w)));
            t.push_back(runWorkload(w, 42, sizes, traced, scratchDir(w)));
        }
        auto e2e = endToEnd(u, 1.0);
        ASSERT_EQ(e2e.size(), endToEndSpecs().size());
        for (const MetricValue &m : e2e)
            EXPECT_GT(m.value, 0.0) << w << " " << m.name;
        auto layers = perLayer(t, traced, u);
        ASSERT_EQ(layers.size(), perLayerSpecs().size());
        std::map<std::string, double> v;
        for (const MetricValue &m : layers)
            v[m.name] = m.value;
        if (std::string(w) != "trace-studies") {
            // Eliminating runs are paired with their baselines.
            EXPECT_GT(v["core.elim.host_cost_ratio"], 0.0) << w;
            EXPECT_NE(v["core.elim.speedup_pct"], 0.0) << w;
            EXPECT_NE(v["core.elim.resource_reduction_pct"], 0.0) << w;
            EXPECT_GT(v["core.idle_cycle_frac"], 0.0) << w;
        }
        if (std::string(w) == "fig6-detailed") {
            EXPECT_NE(v["core.elim.oracle_speedup_pct"], 0.0);
        }
        if (std::string(w) == "fuzz-lockstep") {
            EXPECT_GT(v["verify.check_cost_ratio"], 0.0);
        }
        PassEstimate est = estimatePass(u);
        EXPECT_GE(est.wallS, est.setupS);
    }
}

TEST(Metrics, TablesMatchBenchmarkJson)
{
    std::ifstream in(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream text;
    text << in.rdbuf();
    dde::json::Value doc = dde::json::parse(text.str());

    auto compare = [](const dde::json::Value &list,
                      const std::vector<MetricSpec> &specs) {
        ASSERT_EQ(list.items().size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &m = list.items()[i];
            EXPECT_EQ(m.at("name").asString(), specs[i].name);
            EXPECT_EQ(m.at("unit").asString(), specs[i].unit);
            EXPECT_EQ(m.at("better").asString(), specs[i].better);
        }
    };
    compare(doc.at("end_to_end"), endToEndSpecs());
    compare(doc.at("per_layer"), perLayerSpecs());
    const auto &workloads = doc.at("workloads").items();
    ASSERT_EQ(workloads.size(), std::size(kWorkloads));
    for (std::size_t i = 0; i < workloads.size(); ++i)
        EXPECT_EQ(workloads[i].at("name").asString(), kWorkloads[i]);
}
