/**
 * @file
 * rsvm_perfbench: the rsvm benchmark program.
 *
 *   rsvm_perfbench --workload splash|splash-smp|faults --seed N
 *                  --seconds S --trace 0|1 [--spans FILE]
 *
 * Runs one untimed warm-up pass of the workload, then timed passes
 * until S seconds have elapsed (at least three). Every run is checked
 * (see workload.cc), and every pass must reproduce the warm-up pass's
 * simulated results bit for bit; with --trace 1 the timed passes record
 * spans, so this also proves tracing leaves simulated time untouched.
 *
 * Prints a human-readable report, then as the last line one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Simulated
 * metrics come from the warm-up pass (all passes agree). host_s sums
 * each run's fastest time over the timed passes; setup_s and the span
 * totals use medians.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "workload.hh"

#ifndef RSVM_PERFBENCH_BUILD_TYPE
#define RSVM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rsvm;
using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
};

/** One batch: every app and scenario, base then extended protocol. */
struct Pass
{
    std::vector<RunRecord> runs;
    std::uint64_t fingerprint = 0;
    // Span totals (traced passes only).
    double ctorSpanS = 0;
    double setupSpanS = 0;
    double verifySpanS = 0;
};

Pass
runPass(const Workload &w, std::uint64_t seed, Tracer &tracer,
        std::uint64_t *run_id)
{
    Pass p;
    std::size_t mark = tracer.spans().size();
    {
        Scope span(tracer, "pass");
        for (const std::string &app : apps::appNames()) {
            for (unsigned i = 0; i < w.scenarios; ++i) {
                std::uint64_t s = scenarioSeed(seed, i);
                Config base = workloadConfig(w, ProtocolKind::Base, s);
                p.runs.push_back(
                    runApp(w, app, base, nullptr, tracer, ++*run_id));
                Config ft = workloadConfig(w, ProtocolKind::FaultTolerant, s);
                FaultPlan plan = faultPlan(seed, app, i, w.scenarios,
                                           ft.numNodes, p.runs.back().wall);
                p.runs.push_back(runApp(w, app, ft,
                                        w.faults ? &plan : nullptr,
                                        tracer, ++*run_id));
            }
        }
    }
    std::string fp;
    for (const RunRecord &r : p.runs)
        fp += std::to_string(simFingerprint(r)) + " ";
    p.fingerprint = fnv1a(fp);
    p.ctorSpanS = tracer.totalSeconds("ctor", mark);
    p.setupSpanS = tracer.totalSeconds("setup", mark);
    p.verifySpanS = tracer.totalSeconds("verify", mark);
    return p;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double
medianOf(const std::vector<Pass> &passes, F &&field)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(field(p));
    return median(v);
}

double
fastest(std::vector<double> v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/**
 * Host seconds of one pass, built run by run: for each app run of the
 * pass, @p reduce (median or fastest) of @p field over the timed
 * passes, summed. Reducing per run rather than per pass keeps a burst
 * of interference from other processes confined to the runs it hit.
 */
template <class F, class R>
double
sumOverRuns(const std::vector<Pass> &passes, F &&field, R &&reduce)
{
    double total = 0;
    for (std::size_t i = 0; i < passes.front().runs.size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back(field(p.runs[i]));
        total += reduce(v);
    }
    return total;
}

double
runSeconds(const RunRecord &r)
{
    return r.runS;
}

/**
 * host_s: the fastest time of each run, summed. On a shared host the
 * machine's speed shifts between runs of the benchmark, and the
 * fastest of several repetitions is the estimate those shifts move
 * least.
 */
double
hostSeconds(const std::vector<Pass> &passes)
{
    return sumOverRuns(passes, runSeconds, fastest);
}

/** Geometric mean; 0 when empty or any value is not positive. */
double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logs = 0;
    for (double x : v) {
        if (x <= 0)
            return 0;
        logs += std::log(x);
    }
    return std::exp(logs / static_cast<double>(v.size()));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

double
ms(SimTime t)
{
    return static_cast<double>(t) / 1e6;
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Metric name -> (value, unit), printed sorted by name. */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/** Geomeans of a pass's simulated wall times (runs come in base/ft pairs). */
struct SimWalls
{
    double ftMs = 0;
    double baseMs = 0;
    /** 100 x (geomean of ft/base - 1). */
    double overheadPct = 0;
};

SimWalls
simWalls(const Pass &sim)
{
    std::vector<double> ft, base, rel;
    for (std::size_t i = 0; i + 1 < sim.runs.size(); i += 2) {
        double b = ms(sim.runs[i].wall);
        double f = ms(sim.runs[i + 1].wall);
        base.push_back(b);
        ft.push_back(f);
        rel.push_back(ratio(f, b));
    }
    return {geomean(ft), geomean(base), 100.0 * (geomean(rel) - 1.0)};
}

/** The end-to-end metrics of the workload. */
Metrics
endToEnd(const Pass &sim, const std::vector<Pass> &timed)
{
    SimWalls walls = simWalls(sim);
    Metrics m;
    m["ft_sim_ms"] = {walls.ftMs, "ms"};
    m["base_sim_ms"] = {walls.baseMs, "ms"};
    m["ft_overhead_pct"] = {walls.overheadPct, "%"};
    m["setup_s"] = {sumOverRuns(timed,
                                [](const RunRecord &r) {
                                    return r.ctorS + r.setupS + r.spawnS;
                                },
                                median),
                    "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    return m;
}

/**
 * The per-layer metrics. Counters and breakdowns are summed over the
 * pass's extended-protocol runs; host spans are medians over the
 * traced passes.
 */
Metrics
perLayer(const Pass &sim, const std::vector<Pass> &timed)
{
    Counters c;
    TimeBreakdown t;
    double charged_over_wall = 0;
    std::vector<double> recovery;
    std::vector<std::uint64_t> node_bytes;
    std::uint64_t diverged = 0;
    std::uint64_t ft_runs = 0;
    double sim_us = 0;
    for (const RunRecord &r : sim.runs) {
        sim_us += static_cast<double>(r.wall) / 1e3;
        if (r.protocol != ProtocolKind::FaultTolerant)
            continue;
        ft_runs++;
        c += r.counters;
        t += r.avg;
        charged_over_wall = std::max(charged_over_wall, r.chargedOverWall);
        recovery.push_back(ms(r.recovery));
        diverged += r.divergedPages;
        node_bytes.resize(r.nicBytes.size());
        for (std::size_t n = 0; n < r.nicBytes.size(); ++n)
            node_bytes[n] += r.nicBytes[n];
    }
    double host_s = hostSeconds(timed);
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    double node_max = 0, node_sum = 0;
    for (std::uint64_t b : node_bytes) {
        node_max = std::max(node_max, d(b));
        node_sum += d(b);
    }
    double node_mean =
        node_bytes.empty() ? 0 : node_sum / d(node_bytes.size());
    std::uint64_t acks = c.acksSent + c.acksPiggybacked;

    Metrics m;
    auto count = [&](const char *name, std::uint64_t v) {
        m[name] = {d(v), "count"};
    };
    auto frac = [&](const char *name, double v) { m[name] = {v, "ratio"}; };
    auto msv = [&](const char *name, double v) { m[name] = {v, "ms"}; };

    // Every count below is a sum over this many extended-protocol runs.
    count("bench.ft_runs", ft_runs);
    // sim
    m["sim.host_ns_per_sim_us"] = {ratio(host_s * 1e9, sim_us), "ns/us"};
    // Host time inside Cluster::run(). Not an end-to-end metric: load
    // from other processes on a shared host moves it by more than any
    // bound the benchmark could hold it to.
    m["host_s"] = {host_s, "s"};
    // runtime / apps host spans
    m["runtime.ctor_s"] = {
        medianOf(timed, [](const Pass &p) { return p.ctorSpanS; }), "s"};
    m["apps.setup_s"] = {
        medianOf(timed, [](const Pass &p) { return p.setupSpanS; }), "s"};
    m["apps.verify_s"] = {
        medianOf(timed, [](const Pass &p) { return p.verifySpanS; }), "s"};
    // Time breakdown: per-thread average, raw components (a partition
    // of the charged time), summed over the FT runs.
    msv("time.compute_ms", ms(t.get(Comp::Compute)));
    msv("time.data_ms", ms(t.get(Comp::DataWait)));
    msv("time.lock_ms", ms(t.get(Comp::LockWait)));
    msv("time.barrier_ms", ms(t.get(Comp::BarrierWait)));
    msv("time.diff_ms", ms(t.get(Comp::Diff)));
    msv("time.protocol_ms", ms(t.get(Comp::Protocol)));
    msv("time.ckpt_ms", ms(t.get(Comp::Ckpt)));
    frac("time.charged_over_wall", charged_over_wall);
    // net
    count("net.msgs", c.messagesSent);
    m["net.bytes"] = {d(c.bytesSent), "B"};
    count("net.post_queue_stalls", c.postQueueStalls);
    frac("net.bytes_node_max_over_mean", ratio(node_max, node_mean));
    count("net.retransmits", c.retransmits);
    m["net.retx_bytes"] = {d(c.retransmittedBytes), "B"};
    count("net.dup_drops", c.dupDrops);
    count("net.acks", acks);
    frac("net.ack_piggyback_frac", ratio(d(c.acksPiggybacked), d(acks)));
    count("net.stale_epoch_rejected", c.staleEpochRejected);
    count("net.fenced_drops", c.fencedDrops);
    count("net.heartbeats", c.heartbeatsSent);
    // mem
    count("mem.page_faults", c.pageFaults);
    count("mem.remote_fetches", c.remotePageFetches);
    count("mem.twins", c.twinsCreated);
    count("mem.pages_diffed", c.pagesDiffed);
    frac("mem.home_diff_frac", ratio(d(c.homePagesDiffed), d(c.pagesDiffed)));
    m["mem.diff_bytes"] = {d(c.diffBytesSent), "B"};
    count("mem.invalidations", c.invalidations);
    // svm: release path and locks
    count("svm.releases", c.releases);
    count("svm.intervals", c.intervalsCommitted);
    count("prop.phases", c.propPhases);
    count("prop.dest_batches", c.propDestBatches);
    frac("prop.pages_per_batch",
         ratio(d(c.propPagesPacked), d(c.propDestBatches)));
    msv("prop.phase1_ms", ms(c.phase1WallNs));
    msv("prop.phase2_ms", ms(c.phase2WallNs));
    count("lock.acquires", c.lockAcquires);
    count("lock.remote_acquires", c.lockRemoteAcquires);
    count("lock.poll_rounds", c.lockPollRounds);
    frac("lock.poll_retry_frac",
         ratio(d(c.lockPollRetries), d(c.lockPollRounds)));
    count("lock.fair_grants", c.lockFairGrants);
    // Histogram percentiles are power-of-two bucket bounds; only the
    // exact count, mean and max are reported.
    m["lock.wait_mean_us"] = {c.lockWaitNsHist.mean() / 1e3, "us"};
    m["lock.wait_max_us"] = {d(c.lockWaitNsHist.max()) / 1e3, "us"};
    // ftsvm
    count("ckpt.count", c.checkpointsTaken);
    m["ckpt.bytes"] = {d(c.checkpointBytes), "B"};
    m["ckpt.avg_bytes"] = {ratio(d(c.checkpointBytes),
                                 d(c.checkpointsTaken)),
                           "B"};
    msv("recovery_ms", geomean(recovery));
    count("recovery.count", c.recoveries);
    count("replica.diverged_pages", diverged);
    count("recovery.restarts", c.recoveryRestarts);
    count("recovery.pages_rereplicated", c.pagesReReplicated);
    m["recovery.rereplication_bytes"] = {d(c.reReplicationBytes), "B"};
    count("recovery.rolled_forward", c.pagesRolledForward);
    count("recovery.rolled_back", c.pagesRolledBack);
    count("recovery.threads_restored", c.threadsRestored);
    count("recovery.locks_cleaned", c.locksCleaned);
    msv("recovery.step_max_ms", ms(c.recoveryStepNsHist.max()));
    // runtime: detector, membership, watchdog
    count("detector.failures_detected", c.failuresDetected);
    count("detector.heartbeats_missed", c.heartbeatsMissed);
    count("detector.false_suspicions", c.falseSuspicionsFenced);
    count("join.rejoins", c.rejoins);
    count("join.rolled_back", c.joinsRolledBack);
    msv("join.mean_ms", c.joinTimeNsHist.mean() / 1e6);
    m["join.bulk_bytes"] = {d(c.bulkTransferBytes), "B"};
    count("join.pages_regrown", c.pagesReGrown);
    count("liveness.livelock_breaks", c.livelockBreaks);
    // per app, so a shift hidden by a geomean stays visible
    std::map<std::string, std::vector<double>> walls;
    for (const RunRecord &r : sim.runs) {
        bool ft = r.protocol == ProtocolKind::FaultTolerant;
        walls["app." + r.app + (ft ? ".ft_sim_ms" : ".base_sim_ms")]
            .push_back(ms(r.wall));
    }
    for (const auto &[name, v] : walls)
        m[name] = {geomean(v), "ms"};
    return m;
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o->workload = v;
        else if (k == "--seed")
            o->seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            o->seconds = std::atof(v.c_str());
        else if (k == "--trace")
            o->trace = v == "1";
        else if (k == "--spans")
            o->spansPath = v;
        else
            return false;
    }
    return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

void
printReference(const Workload &w, const Pass &sim)
{
    Counters c;
    for (const RunRecord &r : sim.runs) {
        if (r.protocol == ProtocolKind::FaultTolerant)
            c += r.counters;
    }
    std::printf("# paper reference values (reference, not error: problem "
                "sizes are scaled down,\n#   so the timing model is "
                "unvalidated at these sizes)\n");
    double overhead = simWalls(sim).overheadPct;
    if (w.name == "splash")
        std::printf("#   ft_overhead_pct  paper 20-67 %% (1 thread/node), "
                    "measured %.1f %%\n",
                    overhead);
    else if (w.name == "splash-smp")
        std::printf("#   ft_overhead_pct  paper 24-100 %% "
                    "(2 threads/node), measured %.1f %%\n",
                    overhead);
    else
        std::printf("#   recovery         paper: reconfiguration, "
                    "no log replay\n");
    std::printf("#   ckpt.avg_bytes   paper 2000-2800 B, measured %.0f B "
                "(real fiber-stack image)\n",
                ratio(static_cast<double>(c.checkpointBytes),
                      static_cast<double>(c.checkpointsTaken)));
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, vu] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    Workload w;
    if (!parseArgs(argc, argv, &opt) || !findWorkload(opt.workload, &w)) {
        std::fprintf(stderr,
                     "usage: %s --workload splash|splash-smp|faults "
                     "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                     argv[0]);
        return 2;
    }

    std::printf("# rsvm perfbench workload=%s seed=%llu seconds=%g "
                "trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("# build: compiler=\"%s\" build_type=%s\n", compilerName(),
                RSVM_PERFBENCH_BUILD_TYPE);
    for (ProtocolKind k : {ProtocolKind::Base, ProtocolKind::FaultTolerant}) {
        Config cfg = workloadConfig(w, k, opt.seed);
        cfg.seed = 0; // fingerprint the model, not the seed
        std::printf("# config %-4s fingerprint=%016llx\n",
                    k == ProtocolKind::Base ? "base" : "ft",
                    static_cast<unsigned long long>(fnv1a(cfg.toString())));
    }
    std::fflush(stdout);

    std::uint64_t run_id = 0;
    Tracer untraced(false);
    Tracer tracer(opt.trace);
    Pass warm = runPass(w, opt.seed, untraced, &run_id);
    std::vector<Pass> timed;
    Clock::time_point t0 = Clock::now();
    do {
        timed.push_back(runPass(w, opt.seed, tracer, &run_id));
    } while (timed.size() < 3 ||
             std::chrono::duration<double>(Clock::now() - t0).count() <
                 opt.seconds);

    std::uint64_t attempted = 0, failed = 0;
    bool deterministic = true;
    auto tally = [&](const Pass &p, bool report) {
        for (const RunRecord &r : p.runs) {
            attempted++;
            failed += r.ok ? 0 : 1;
            if (!r.ok && report)
                std::printf("# FAILED %s/%s: %s\n", r.app.c_str(),
                            r.protocol == ProtocolKind::Base ? "base" : "ft",
                            r.why.c_str());
        }
    };
    tally(warm, true);
    for (const Pass &p : timed) {
        tally(p, false);
        deterministic &= p.fingerprint == warm.fingerprint;
    }
    if (!deterministic)
        std::printf("# FAILED: simulated results differ between passes\n");

    std::printf("# %-10s %12s %12s %9s %12s %7s %9s %s\n", "app",
                "base_ms", "ft_ms", "ovh_%", "recovery_ms", "victim",
                "diverged", "checks");
    for (std::size_t i = 0; i + 1 < warm.runs.size(); i += 2) {
        const RunRecord &b = warm.runs[i];
        const RunRecord &f = warm.runs[i + 1];
        std::string victim =
            f.victim < 0 ? "-" : std::to_string(f.victim);
        std::printf("# %-10s %12.6f %12.6f %9.2f %12.6f %7s %9llu %s\n",
                    f.app.c_str(), ms(b.wall), ms(f.wall),
                    100.0 * (ratio(ms(f.wall), ms(b.wall)) - 1.0),
                    ms(f.recovery), victim.c_str(),
                    static_cast<unsigned long long>(f.divergedPages),
                    b.ok && f.ok ? "ok" : "FAILED");
    }
    std::printf("# sim fingerprint=%016llx passes=%zu (+1 warm-up)\n",
                static_cast<unsigned long long>(warm.fingerprint),
                timed.size());
    // Printed in both modes, so traced minus untraced host_s is the
    // tracing overhead.
    std::printf("# host_s %.6f s (per-run median, summed: %.6f s)\n",
                hostSeconds(timed), sumOverRuns(timed, runSeconds, median));
    printReference(w, warm);

    Metrics m = opt.trace ? perLayer(warm, timed) : endToEnd(warm, timed);
    for (const auto &[name, vu] : m)
        std::printf("%-34s %20.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());

    if (opt.trace && !opt.spansPath.empty()) {
        if (tracer.write(opt.spansPath))
            std::printf("# spans: %zu written to %s\n",
                        tracer.spans().size(), opt.spansPath.c_str());
        else
            std::printf("# spans: could not write %s\n",
                        opt.spansPath.c_str());
    }
    printJson(failed == 0 && deterministic, attempted, failed, m);
    return 0;
}
