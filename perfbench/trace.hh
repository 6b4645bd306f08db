/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * A span wraps one call the benchmark makes into the simulator
 * (Cluster construction, app setup, spawn, run, verify, counter reads)
 * and records its name, host start and end, parent span and run id.
 * Spans live on the host stack only: the application's thread function
 * is never wrapped, because an extra fiber frame would change the
 * checkpointed stack image and with it simulated time. Spans are kept
 * in memory and written as Chrome trace-event JSON when the run ends.
 */

#ifndef RSVM_PERFBENCH_TRACE_HH
#define RSVM_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    /** Host ns since the tracer was created. */
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    /** The app run (one Cluster) this span belongs to; 0 = none. */
    std::uint64_t run = 0;
};

/** In-memory span recorder; every call is a no-op when disabled. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name, std::uint64_t run);
    /** Close the span returned by open(). */
    void close(int id);

    const std::vector<Span> &spans() const { return done; }

    /** Summed duration (s) of spans named @p name, from index @p from. */
    double totalSeconds(const std::string &name,
                        std::size_t from = 0) const;

    /** Write all recorded spans as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool on;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> done;
    std::vector<int> stack;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, std::uint64_t run = 0)
        : tr(tracer), id(tracer.open(name, run))
    {
    }
    ~Scope() { tr.close(id); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tr;
    int id;
};

} // namespace perfbench

#endif // RSVM_PERFBENCH_TRACE_HH
