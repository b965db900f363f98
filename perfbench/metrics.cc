#include "metrics.hh"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"wall_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"sim_mips", "MIPS", "higher"},
        {"replay_mips", "MIPS", "higher"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"workloads.make_s", "s", "lower"},
        {"mir.compile_s", "s", "lower"},
        {"mir.compiles", "count", "lower"},
        {"emu.run_s", "s", "lower"},
        {"emu.insts", "count", "lower"},
        {"emu.mips", "MIPS", "higher"},
        {"deadness.analyze_s", "s", "lower"},
        {"deadness.records", "count", "lower"},
        {"deadness.dead_frac", "ratio", "higher"},
        {"predictor.eval_s", "s", "lower"},
        {"predictor.records", "count", "lower"},
        {"predictor.accuracy", "ratio", "higher"},
        {"predictor.coverage", "ratio", "higher"},
        {"sim.oracle_labels_s", "s", "lower"},
        {"sim.run_s", "s", "lower"},
        {"sim.runs", "count", "lower"},
        {"core.construct_s", "s", "lower"},
        {"core.constructs", "count", "lower"},
        {"core.tick_s", "s", "lower"},
        {"core.cycles", "count", "lower"},
        {"core.committed", "count", "lower"},
        {"core.ns_per_cycle", "ns", "lower"},
        {"core.idle_cycle_frac", "ratio", "lower"},
        {"core.squashed_frac", "ratio", "lower"},
        {"core.rename_stall_frac", "ratio", "lower"},
        {"core.elim.host_cost_ratio", "ratio", "lower"},
        {"core.elim.predicted_dead", "count", "higher"},
        {"core.elim.committed_eliminated", "count", "higher"},
        {"core.elim.useful_frac", "ratio", "higher"},
        {"core.elim.dead_mispredicts", "count", "lower"},
        {"core.elim.verify_stall_cycles", "count", "lower"},
        {"core.elim.shadow_execs", "count", "lower"},
        {"core.elim.speedup_pct", "%", "higher"},
        {"core.elim.oracle_speedup_pct", "%", "higher"},
        {"core.elim.resource_reduction_pct", "%", "higher"},
        {"core.cluster.steered", "count", "higher"},
        {"core.cluster.steered_wrong", "count", "lower"},
        {"core.cluster.bypass_stalls", "count", "lower"},
        {"cache.accesses", "count", "lower"},
        {"cache.l1i_miss_rate", "ratio", "lower"},
        {"cache.l1d_miss_rate", "ratio", "lower"},
        {"cache.l2_miss_rate", "ratio", "lower"},
        {"verify.gen_s", "s", "lower"},
        {"verify.lockstep_s", "s", "lower"},
        {"verify.jobs", "count", "higher"},
        {"verify.divergences", "count", "lower"},
        {"verify.check_cost_ratio", "ratio", "lower"},
        {"runner.overhead_s", "s", "lower"},
        {"runner.store_save_s", "s", "lower"},
        {"runner.store_load_s", "s", "lower"},
        {"runner.store_entries", "count", "lower"},
        {"runner.report_write_s", "s", "lower"},
        {"trace.overhead_frac", "ratio", "lower"},
    };
    return specs;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

namespace
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Attach units from the spec table, in table order. */
std::vector<MetricValue>
withUnits(const std::vector<MetricSpec> &specs,
          const std::map<std::string, double> &values)
{
    std::vector<MetricValue> out;
    for (const MetricSpec &s : specs) {
        auto it = values.find(s.name);
        if (it == values.end())
            throw std::logic_error(std::string("metric not derived: ") +
                                   s.name);
        out.push_back({s.name, s.unit, it->second});
    }
    return out;
}

/** Metrics one traced pass gives on its own, before medians; its
 * times are scaled by `speed` into nominal seconds. */
std::map<std::string, double>
passLayerMetrics(const PassResult &pass, const Tracer &tracer, double speed)
{
    std::map<std::string, double> self =
        tracer.selfTimes(pass.firstSpan, pass.endSpan);
    std::map<std::string, std::uint64_t> spans =
        tracer.counts(pass.firstSpan, pass.endSpan);
    auto t = [&self, speed](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second * speed;
    };
    auto n = [&pass](const char *name) {
        auto it = pass.counts.find(name);
        return it == pass.counts.end() ? 0.0 : it->second;
    };

    std::map<std::string, double> m;
    m["workloads.make_s"] = t("workloads.make");
    m["mir.compile_s"] = t("mir.compile");
    m["emu.run_s"] = t("emu.run") + t("emu.fast_forward");
    m["emu.mips"] = ratio(n("emu.insts"), m["emu.run_s"]) / 1e6;
    m["deadness.analyze_s"] = t("deadness.analyze");
    m["predictor.eval_s"] = t("predictor.eval");
    m["sim.oracle_labels_s"] = t("sim.oracle_labels");
    m["sim.run_s"] = t("sim.run");
    m["core.construct_s"] = t("core.construct");
    m["core.constructs"] = double(spans["core.construct"]);
    m["core.tick_s"] = t("core.tick");
    m["core.ns_per_cycle"] = ratio(m["core.tick_s"], n("core.cycles")) * 1e9;
    m["verify.gen_s"] = t("verify.gen");
    m["verify.lockstep_s"] = t("verify.lockstep");
    m["runner.overhead_s"] = t("runner.row");
    m["runner.store_save_s"] = t("runner.store_save");
    m["runner.store_load_s"] = t("runner.store_load");
    m["runner.report_write_s"] = t("runner.report_write");

    // Eliminating runs against the baseline run of the same program,
    // machine and fast-forward setting.
    auto baseline = [&pass](const CoreRun &r) -> const CoreRun * {
        for (const CoreRun &b : pass.coreRuns) {
            if (b.program == r.program && b.role == Role::Base &&
                b.contended == r.contended &&
                b.fastForward == r.fastForward)
                return &b;
        }
        return nullptr;
    };
    double elim_s = 0, base_s = 0, lockstep_s = 0, plain_s = 0;
    std::vector<double> speedup, oracle_speedup, reduction;
    for (const CoreRun &r : pass.coreRuns) {
        if (r.lockstepSeconds > 0.0) {
            lockstep_s += r.lockstepSeconds;
            plain_s += r.seconds;
        }
        Role role = r.role;
        if (role != Role::Elim && role != Role::Oracle)
            continue;
        const CoreRun *b = baseline(r);
        if (!b)
            continue;
        elim_s += r.seconds;
        base_s += b->seconds;
        if (r.fastForward)
            continue;
        double sp = 100.0 * (ratio(double(b->counts.cycles),
                                   double(r.counts.cycles)) - 1.0);
        if (r.contended)
            (role == Role::Elim ? speedup : oracle_speedup).push_back(sp);
        else if (role == Role::Elim)
            reduction.push_back(
                100.0 * (1.0 - ratio(double(r.counts.physRegAllocs),
                                     double(b->counts.physRegAllocs))));
    }
    auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / double(v.size());
    };
    m["core.elim.host_cost_ratio"] = ratio(elim_s, base_s);
    m["core.elim.speedup_pct"] = mean(speedup);
    m["core.elim.oracle_speedup_pct"] = mean(oracle_speedup);
    m["core.elim.resource_reduction_pct"] = mean(reduction);
    m["verify.check_cost_ratio"] = ratio(lockstep_s, plain_s);

    for (const char *count :
         {"mir.compiles", "emu.insts", "deadness.records",
          "predictor.records", "sim.runs", "core.cycles", "core.committed",
          "core.elim.predicted_dead", "core.elim.committed_eliminated",
          "core.elim.dead_mispredicts", "core.elim.verify_stall_cycles",
          "core.elim.shadow_execs", "core.cluster.steered",
          "core.cluster.steered_wrong", "core.cluster.bypass_stalls",
          "verify.jobs", "verify.divergences", "runner.store_entries"})
        m[count] = n(count);
    m["deadness.dead_frac"] = ratio(n("deadness.dead"), n("deadness.total"));
    double tp = n("predictor.true_positives");
    m["predictor.accuracy"] = ratio(tp, tp + n("predictor.false_positives"));
    m["predictor.coverage"] = ratio(tp, n("predictor.labeled_dead"));
    m["core.idle_cycle_frac"] = ratio(n("core.idle_cycles"), n("core.cycles"));
    m["core.squashed_frac"] = ratio(n("core.squashed"), n("core.fetched"));
    m["core.rename_stall_frac"] =
        ratio(n("core.rename_stalls"), n("core.cycles"));
    m["core.elim.useful_frac"] = ratio(n("core.elim.committed_eliminated"),
                                       n("core.elim.predicted_dead"));
    m["cache.accesses"] = n("cache.l1i_accesses") + n("cache.l1d_accesses");
    m["cache.l1i_miss_rate"] =
        ratio(n("cache.l1i_misses"), n("cache.l1i_accesses"));
    m["cache.l1d_miss_rate"] =
        ratio(n("cache.l1d_misses"), n("cache.l1d_accesses"));
    m["cache.l2_miss_rate"] =
        ratio(n("cache.l2_misses"), n("cache.l2_accesses"));
    return m;
}

} // namespace

PassSpeed
passSpeed(const PassResult &pass)
{
    PassSpeed speed;
    double host = 0.0, nominal = 0.0;
    for (const Step &s : pass.steps) {
        double f = speedFactor(pass.calib, s.start, s.start + s.wallS);
        speed.steps.push_back(f);
        host += s.wallS;
        nominal += s.wallS * f;
    }
    if (host > 0.0)
        speed.pass = nominal / host;
    return speed;
}

PassEstimate
estimatePass(const std::vector<PassResult> &passes)
{
    if (passes.empty())
        throw std::logic_error("no pass to estimate from");
    const PassResult &first = passes.front();
    std::vector<PassSpeed> speed;
    for (const PassResult &p : passes) {
        if (p.steps.size() != first.steps.size() ||
            p.setupSteps != first.setupSteps)
            throw std::logic_error("passes of one run differ in steps");
        speed.push_back(passSpeed(p));
    }
    auto est = [&passes, &speed](auto field) {
        std::vector<double> v;
        for (std::size_t j = 0; j < passes.size(); ++j)
            v.push_back(field(passes[j], speed[j]));
        return quantile(v, kStepQuantile);
    };
    PassEstimate m;
    for (std::size_t i = 0; i < first.steps.size(); ++i) {
        double wall = est([i](const PassResult &p, const PassSpeed &s) {
            return p.steps[i].wallS * s.steps[i];
        });
        m.wallS += wall;
        if (i < first.setupSteps)
            m.setupS += wall;
        m.simS += est([i](const PassResult &p, const PassSpeed &s) {
            return p.steps[i].simS * s.steps[i];
        });
        m.replayS += est([i](const PassResult &p, const PassSpeed &s) {
            return p.steps[i].replayS * s.steps[i];
        });
        m.unprobedS += est([i](const PassResult &p, const PassSpeed &s) {
            return (p.steps[i].wallS - p.steps[i].probeS) * s.steps[i];
        });
    }
    double rest = est([](const PassResult &p, const PassSpeed &s) {
        double host = p.wallS;
        for (const Step &st : p.steps)
            host -= st.wallS;
        for (const CalibSample &c : p.calib)
            host -= c.seconds;
        return host * s.pass;
    });
    m.wallS += rest;
    m.unprobedS += rest;
    return m;
}

std::vector<MetricValue>
endToEnd(const std::vector<PassResult> &passes, double peak_rss_mb)
{
    PassEstimate m = estimatePass(passes);
    const PassResult &p = passes.front();
    return withUnits(
        endToEndSpecs(),
        {{"wall_s", m.wallS},
         {"setup_s", m.setupS},
         {"sim_mips", ratio(double(p.simInsts), m.simS) / 1e6},
         {"replay_mips", ratio(double(p.replayRecords), m.replayS) / 1e6},
         {"peak_rss_mb", peak_rss_mb}});
}

std::vector<MetricValue>
perLayer(const std::vector<PassResult> &traced, const Tracer &tracer,
         const std::vector<PassResult> &untraced)
{
    std::map<std::string, std::vector<double>> series;
    for (const PassResult &p : traced) {
        for (const auto &[name, v] :
             passLayerMetrics(p, tracer, passSpeed(p).pass))
            series[name].push_back(v);
    }
    std::map<std::string, double> values;
    for (const auto &[name, v] : series) {
        // Times and time ratios vary by pass; exact counts do not, and
        // the median of identical values is that value.
        values[name] = median(v);
    }
    values["trace.overhead_frac"] =
        ratio(estimatePass(traced).unprobedS, estimatePass(untraced).wallS) -
        1.0;
    return withUnits(perLayerSpecs(), values);
}

std::vector<std::pair<std::string, double>>
layerSelfTimes(const PassResult &pass, const Tracer &tracer)
{
    std::map<std::string, double> layers;
    for (const auto &[name, s] :
         tracer.selfTimes(pass.firstSpan, pass.endSpan))
        layers[layerOf(name)] += s;
    std::vector<std::pair<std::string, double>> out(layers.begin(),
                                                    layers.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

} // namespace perfbench
