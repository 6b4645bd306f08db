#include "workload.hh"

#include <cstdio>
#include <memory>

#include "net/nic.hh"

namespace perfbench {

using namespace rsvm;

namespace {

/** Engine-side poll period of the rejoin request. */
constexpr SimTime kRejoinPoll = 50 * kMicrosecond;
/** Give up polling after this many rounds (the run is then failed). */
constexpr unsigned kRejoinPollLimit = 20000;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
applicationDone(Cluster &cl)
{
    for (ThreadId t = 0; t < cl.numThreads(); ++t) {
        ThreadState s = cl.appThread(t).sim().state();
        if (s != ThreadState::Finished && s != ThreadState::Dead)
            return false;
    }
    return true;
}

/**
 * Runs as an engine event, never on a compute thread's fiber: once the
 * recovery pass for the kill has been computed, ask for the victim's
 * rejoin (the join manager serves it when the recovery window closes).
 */
void
pollRejoin(Cluster &cl, PhysNodeId victim, unsigned round)
{
    if (cl.lost() || applicationDone(cl) || round >= kRejoinPollLimit)
        return;
    if (cl.recovery()->lastRecoveryTime() > 0) {
        cl.joinManager()->requestJoin(victim);
        return;
    }
    cl.engine().schedule(kRejoinPoll, [&cl, victim, round] {
        pollRejoin(cl, victim, round + 1);
    });
}

template <class F>
double
timed(Tracer &tracer, const char *name, std::uint64_t run, F &&fn)
{
    Scope span(tracer, name, run);
    Clock::time_point t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The workload's output checks; returns the first failure, or "". */
std::string
checkRun(const Workload &w, const RunRecord &r)
{
    const Counters &c = r.counters;
    char buf[160];
    bool ft = r.protocol == ProtocolKind::FaultTolerant;
    // After a kill and rejoin some tentative replicas are left a
    // version behind (the app still verifies). That is reported as
    // replica.diverged_pages rather than failed, so the faults
    // workload stays runnable; the clean workloads must have none.
    if (!w.faults && r.divergedPages != 0) {
        std::snprintf(buf, sizeof buf, "%llu pages with diverged replicas",
                      static_cast<unsigned long long>(r.divergedPages));
        return buf;
    }
    if (c.livelockBreaks != 0)
        return "progress watchdog fired on a healthy run";
    if (c.falseSuspicionsFenced != 0)
        return "live node fenced on a false suspicion";
    std::uint64_t want = ft && w.faults ? 1 : 0;
    if (c.recoveries != want) {
        std::snprintf(buf, sizeof buf, "%llu recoveries, expected %llu",
                      static_cast<unsigned long long>(c.recoveries),
                      static_cast<unsigned long long>(want));
        return buf;
    }
    if (c.rejoins != want) {
        std::snprintf(buf, sizeof buf, "%llu rejoins, expected %llu",
                      static_cast<unsigned long long>(c.rejoins),
                      static_cast<unsigned long long>(want));
        return buf;
    }
    return "";
}

} // namespace

bool
findWorkload(const std::string &name, Workload *out)
{
    static const Workload table[] = {
        {"splash", 1, false, 4},
        {"splash-smp", 2, false, 4},
        {"faults", 1, true, 7},
    };
    for (const Workload &w : table) {
        if (w.name == name) {
            *out = w;
            return true;
        }
    }
    return false;
}

Config
workloadConfig(const Workload &w, ProtocolKind protocol, std::uint64_t seed)
{
    Config cfg;
    cfg.protocol = protocol;
    cfg.numNodes = 8;
    cfg.threadsPerNode = w.threadsPerNode;
    cfg.seed = seed;
    if (w.faults) {
        cfg.netDropProb = 0.01;
        cfg.netDupProb = 0.01;
        cfg.netReorderProb = 0.01;
        cfg.netJitterMax = 20 * kMicrosecond;
    }
    return cfg;
}

apps::AppParams
appParams(const std::string &app, std::uint32_t total_threads)
{
    apps::AppParams p = apps::defaultParams(app);
    // fft, lu and volrend partition by rows/blocks; the rest need the
    // problem size to be a multiple of the thread count (the same
    // rounding the figure benches apply).
    if (app != "fft" && app != "lu" && app != "volrend")
        p.size = (p.size + total_threads - 1) / total_threads * total_threads;
    return p;
}

std::uint64_t
scenarioSeed(std::uint64_t seed, unsigned scenario)
{
    return scenario == 0 ? seed : splitmix64(seed + scenario);
}

FaultPlan
faultPlan(std::uint64_t seed, const std::string &app, unsigned scenario,
          unsigned scenarios, std::uint32_t num_nodes, SimTime base_wall)
{
    // Node 0 is never the victim: killing it mid-run can leave one of
    // volrend's locks livelocked after the rejoin (a known defect that
    // the watchdog reports as a lost cluster).
    std::uint32_t candidates = num_nodes - 1;
    std::uint64_t r = splitmix64(seed ^ fnv1a(app));
    FaultPlan p;
    p.victim = static_cast<PhysNodeId>(
        1 + (r + scenario * candidates / scenarios) % candidates);
    std::uint64_t k = splitmix64(r + scenario);
    double frac = 0.30 + 0.10 * static_cast<double>(k % 1001) / 1000.0;
    p.killAt = static_cast<SimTime>(static_cast<double>(base_wall) * frac);
    return p;
}

RunRecord
runApp(const Workload &w, const std::string &app, const Config &cfg,
       const FaultPlan *plan, Tracer &tracer, std::uint64_t run_id)
{
    RunRecord r;
    r.app = app;
    r.protocol = cfg.protocol;
    Scope whole(tracer,
                app + (cfg.protocol == ProtocolKind::Base ? "/base"
                                                          : "/ft"),
                run_id);

    std::unique_ptr<Cluster> cl;
    apps::AppInstance inst;
    r.ctorS = timed(tracer, "ctor", run_id,
                    [&] { cl = std::make_unique<Cluster>(cfg); });
    r.setupS = timed(tracer, "setup", run_id, [&] {
        inst = apps::makeApp(app, appParams(app, cfg.totalThreads()));
        inst.setup(*cl);
        if (plan) {
            r.victim = static_cast<int>(plan->victim);
            cl->injector().killAt(plan->victim, plan->killAt);
            Cluster &c = *cl;
            PhysNodeId victim = plan->victim;
            cl->engine().at(plan->killAt, [&c, victim] {
                pollRejoin(c, victim, 0);
            });
        }
    });
    r.spawnS = timed(tracer, "spawn", run_id,
                     [&] { cl->spawn(inst.threadFn); });

    std::string lost;
    r.runS = timed(tracer, "run", run_id, [&] {
        try {
            cl->run();
        } catch (const ClusterLostError &e) {
            lost = e.what();
        }
    });

    apps::AppResult verdict;
    if (lost.empty()) {
        timed(tracer, "verify", run_id,
              [&] { verdict = inst.verify(*cl); });
    }

    timed(tracer, "read", run_id, [&] {
        r.wall = cl->wallTime();
        r.avg = cl->avgBreakdown();
        r.counters = cl->totalCounters();
        if (cl->recovery())
            r.recovery = cl->recovery()->lastRecoveryTime();
        SimTime charged = 0;
        for (ThreadId t = 0; t < cl->numThreads(); ++t) {
            charged = std::max(charged,
                               cl->appThread(t).sim().times().total());
        }
        r.chargedOverWall = r.wall ? static_cast<double>(charged) /
                                         static_cast<double>(r.wall)
                                   : 0.0;
        for (PhysNodeId p = 0; p < cfg.numNodes; ++p)
            r.nicBytes.push_back(cl->network().nic(p).counters().bytesSent);
        if (lost.empty())
            r.divergedPages = cl->checkReplicaConsistency();
    });

    if (!lost.empty())
        r.why = lost;
    else if (!verdict.ok)
        r.why = "verify failed: " + verdict.detail;
    else
        r.why = checkRun(w, r);
    r.ok = r.why.empty();
    return r;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
simFingerprint(const RunRecord &r)
{
    std::string s = r.app;
    s += r.protocol == ProtocolKind::Base ? " base " : " ft ";
    s += std::to_string(r.wall) + " " + std::to_string(r.recovery) + " ";
    s += std::to_string(r.divergedPages) + " ";
    s += r.counters.toString();
    for (unsigned c = 0; c < kNumComps; ++c) {
        s += " " + std::to_string(r.avg.get(static_cast<Comp>(c), false));
        s += " " + std::to_string(r.avg.get(static_cast<Comp>(c), true));
    }
    for (std::uint64_t b : r.nicBytes)
        s += " " + std::to_string(b);
    return fnv1a(s);
}

} // namespace perfbench
