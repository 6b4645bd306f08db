/**
 * @file
 * The benchmark's workloads and the measurement of one app run.
 *
 * Every workload is a closed batch: each of the six SPLASH-2 kernels
 * runs to completion under the base and then the extended protocol,
 * once per scenario, and one such batch is a pass. The benchmark drives the
 * simulator only through its public API (Cluster, the app factory and
 * the counter accessors) and measures it from outside.
 *
 *  - splash:     8 nodes x 1 thread, clean wire (the paper's Figs. 7/8).
 *  - splash-smp: 8 nodes x 2 threads, clean wire (Figs. 9/10).
 *  - faults:     8 x 1 on a 1 % drop+dup+reorder wire with <= 20 us
 *                jitter. Each extended run kills one seed-chosen node
 *                mid-run and requests its rejoin once recovery has run;
 *                the base run on the same wire has no kill and is the
 *                overhead reference.
 */

#ifndef RSVM_PERFBENCH_WORKLOAD_HH
#define RSVM_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_common.hh"
#include "trace.hh"

namespace perfbench {

struct Workload
{
    std::string name;
    std::uint32_t threadsPerNode = 1;
    /**
     * Lossy wire (1 % drop+dup+reorder, <= 20 us jitter), and a kill
     * and rejoin of one node in every extended-protocol run.
     */
    bool faults = false;
    /**
     * Runs of each app and protocol per pass, each on its own
     * Config::seed (lock backoff jitter, wire faults); the workload
     * reports their geometric mean. Each scenario of the faults
     * workload also kills a different victim (see faultPlan) at a
     * seed-chosen time.
     */
    unsigned scenarios = 1;
};

/** The named workload; false if unknown. */
bool findWorkload(const std::string &name, Workload *out);

/** The cluster configuration a workload runs @p protocol under. */
rsvm::Config workloadConfig(const Workload &w, rsvm::ProtocolKind protocol,
                            std::uint64_t seed);

/** Default problem size of @p app, rounded to divide across threads. */
rsvm::apps::AppParams appParams(const std::string &app,
                                std::uint32_t total_threads);

/** Seed-derived failure for one app of the faults workload. */
struct FaultPlan
{
    rsvm::PhysNodeId victim = 0;
    rsvm::SimTime killAt = 0;
};

/** Config::seed of scenario @p scenario (scenario 0 keeps @p seed). */
std::uint64_t scenarioSeed(std::uint64_t seed, unsigned scenario);

/**
 * Victim and kill time of one scenario of @p app: scenario i kills node
 * 1 + (v + i * (nodes - 1) / scenarios) mod (nodes - 1) for a
 * seed-chosen v, at a seed-chosen 30-40 % of @p base_wall (the same
 * scenario's base run on the same wire), early enough for recovery and
 * the rejoin to complete before the extended run ends.
 */
FaultPlan faultPlan(std::uint64_t seed, const std::string &app,
                    unsigned scenario, unsigned scenarios,
                    std::uint32_t num_nodes, rsvm::SimTime base_wall);

/** Everything the benchmark reads from one app run. */
struct RunRecord
{
    std::string app;
    rsvm::ProtocolKind protocol = rsvm::ProtocolKind::Base;
    bool ok = false;
    /** Why the run failed its checks (empty when ok). */
    std::string why;
    /** Physical node killed in this run, or -1. */
    int victim = -1;

    // Simulated (seed-deterministic) results.
    rsvm::SimTime wall = 0;
    rsvm::SimTime recovery = 0;
    /** Largest per-thread charged time over wall time. */
    double chargedOverWall = 0;
    rsvm::TimeBreakdown avg;
    rsvm::Counters counters;
    /** Pages whose tentative replica differs from the committed copy. */
    std::uint64_t divergedPages = 0;
    /** Bytes each physical node's NIC sent. */
    std::vector<std::uint64_t> nicBytes;

    // Host seconds spent in each call into the simulator.
    double ctorS = 0;
    double setupS = 0;
    double spawnS = 0;
    double runS = 0;
};

/**
 * Run @p app once on a fresh Cluster built from @p cfg, time each call
 * (recording spans when @p tracer is enabled) and apply the workload's
 * output checks. @p plan, when given, arms the kill and the rejoin.
 */
RunRecord runApp(const Workload &w, const std::string &app,
                 const rsvm::Config &cfg, const FaultPlan *plan,
                 Tracer &tracer, std::uint64_t run_id);

/** 64-bit FNV-1a, for configuration and result fingerprints. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Fingerprint of every simulated value in @p r. */
std::uint64_t simFingerprint(const RunRecord &r);

} // namespace perfbench

#endif // RSVM_PERFBENCH_WORKLOAD_HH
