/**
 * @file
 * Outside-in layer instrumentation of the traced run. Everything
 * here wraps or calls the library's public entry points; nothing is
 * compiled into the library itself.
 *
 *  - SpanLog: in-memory spans (name, track, start, end) recorded by
 *    the benchmark around the calls it makes, written out as a
 *    Chrome trace when the run ends.
 *  - TimedBackend: a DynamicsBackend decorator that times every
 *    batch a server lane hands to its backend, per function.
 *  - runLedger: one seeded ∆FD batch timed through each layer's
 *    public entry in turn (scalar kernel, batched engine at 1 and N
 *    threads, backend submit, server submit+wait).
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/backend.h"
#include "runtime/obs/metrics.h"
#include "runtime/sched/telemetry.h"

namespace perfbench {

/** Spans kept in memory per track; later spans are counted, not kept. */
inline constexpr std::size_t kSpansPerTrack = 1 << 16;
/** Tracks are reserved up front so recording threads never see a move. */
inline constexpr std::size_t kMaxTracks = 32;

/**
 * Per-track span storage. Each track is written by one thread at a
 * time (one client, or one server lane), so recording takes no lock.
 */
class SpanLog
{
  public:
    SpanLog() { tracks_.reserve(kMaxTracks); }

    /** Add a track; call before any thread records. */
    int addTrack(const std::string &name);

    void record(int track, const char *name, double t0_us, double t1_us);

    /** Write every track as a Chrome trace. @return false on I/O error. */
    bool write(const std::string &path) const;

    std::uint64_t dropped() const;

  private:
    struct Span
    {
        const char *name;
        double t0_us, t1_us;
    };
    struct Track
    {
        std::string name;
        std::vector<Span> spans;
        std::uint64_t dropped = 0;
    };
    std::vector<Track> tracks_;
};

/** Per-function batch counts and busy time seen by a TimedBackend. */
struct BackendTally
{
    std::uint64_t calls = 0;
    std::uint64_t points = 0;
    double busy_us = 0.0;
};

inline constexpr int kFunctionCount = 7; ///< FunctionType enumerators

/**
 * Timing decorator over one server lane's backend. The server keeps
 * one submitter per backend, so the tallies need no lock; read them
 * after the server has drained.
 */
class TimedBackend : public dadu::runtime::DynamicsBackend
{
  public:
    TimedBackend(dadu::runtime::DynamicsBackend &inner, SpanLog &spans,
                 int track);

    const char *name() const override { return inner_.name(); }
    const dadu::runtime::RobotModel &robot() const override
    {
        return inner_.robot();
    }
    bool offloaded() const override { return inner_.offloaded(); }

    dadu::runtime::SubmitStatus
    submit(dadu::runtime::FunctionType fn,
           const dadu::runtime::DynamicsRequest *requests, std::size_t count,
           dadu::runtime::DynamicsResult *results,
           dadu::runtime::BatchStats *stats = nullptr) override;
    using DynamicsBackend::submit;

    const BackendTally &tally(dadu::runtime::FunctionType fn) const
    {
        return tally_[static_cast<std::size_t>(fn)];
    }

  private:
    dadu::runtime::DynamicsBackend &inner_;
    SpanLog &spans_;
    int track_;
    std::array<BackendTally, kFunctionCount> tally_{};
};

/** µs per point of one ∆FD batch through each layer (medians). */
struct LedgerResult
{
    double scalar_us_per_pt = 0.0;
    double engine_1t_us_per_pt = 0.0;
    double engine_nt_us_per_pt = 0.0;
    double backend_us_per_pt = 0.0;
    double server_us_per_pt = 0.0;
    int threads = 1;
};

/**
 * Time the ∆FD batch @p requests through each layer, interleaving
 * the layers round by round so a slow host phase hits all of them,
 * and report each layer's median µs/pt over the rounds. Engine
 * calls are recorded on @p track of @p spans.
 */
LedgerResult runLedger(const dadu::runtime::RobotModel &robot,
                       const std::vector<dadu::runtime::DynamicsRequest> &requests,
                       int threads, SpanLog &spans, int track);

/**
 * Job-level figures of one traced stream, read from two snapshots
 * of the server's metrics registry (before and after the stream).
 */
struct RegistryDelta
{
    std::uint64_t jobs = 0;       ///< end-to-end samples (completed jobs)
    double e2e_sum_us = 0.0;      ///< Σ submit → completion
    double queue_wait_p99_us = 0.0;
    std::uint64_t queue_wait_samples = 0;
};

RegistryDelta registryDelta(const dadu::runtime::obs::MetricsRegistry &before,
                            const dadu::runtime::obs::MetricsRegistry &after);

/** Every per-layer metric of a traced run (see BENCHMARK.json). */
struct LayerFigures
{
    // ctrl: the client's own work per tick (per batch on batch_dfd_iiwa).
    double jobs_per_tick = 0.0;
    double fd_roundtrips_per_tick = 0.0;
    double linesearch_trials_per_tick = 0.0;
    double tick_self_us = 0.0;
    double gated_share = 0.0;
    double live_density = 0.0;
    // runtime/server and runtime/sched.
    double handoff_us_per_job = 0.0;
    double queue_wait_p99_us = 0.0;
    std::uint64_t queue_wait_samples = 0;
    double job_deadline_hit_ratio = 1.0;
    double steals_per_tick = 0.0;
    double coalesced_per_job = 0.0;
    double lane_busy_ratio = 0.0;
    // runtime/backends, as seen by the TimedBackend decorators.
    double busy_share = 0.0;
    double us_per_call_fd = 0.0;
    double us_per_pt_dfd = 0.0;
    double us_per_pt_difd = 0.0;
    LedgerResult ledger;
    double trace_overhead_pct = 0.0;
    std::uint64_t dropped_spans = 0;
};

/** Backend tallies summed over the decorated lanes. */
std::array<BackendTally, kFunctionCount>
laneTallies(const std::vector<std::unique_ptr<TimedBackend>> &lanes);

/** What the benchmark counted over one traced closed-loop stream. */
struct StreamCounts
{
    double rounds = 0.0;       ///< ticks (or batches) attempted
    double jobs = 0.0;         ///< server jobs the clients submitted
    double round_us_sum = 0.0; ///< Σ client round latency
    double wall_us = 0.0;
    int lanes = 1;
    dadu::runtime::sched::SchedStats sched{}; ///< summed over drains
};

/**
 * Fill the layer figures that every workload shares (jobs, handoff,
 * queue wait, scheduler counts, lane and backend busy time) from the
 * stream's counts, the registry delta and the backend tally deltas.
 */
void streamFigures(const StreamCounts &counts, const RegistryDelta &reg,
                   const std::array<BackendTally, kFunctionCount> &before,
                   const std::array<BackendTally, kFunctionCount> &after,
                   LayerFigures &f);

/** Write @p spans under args.out_dir, named after the workload and seed. */
void writeSpans(const SpanLog &spans, const Args &args);

/** Print every per-layer metric into @p report. */
void reportLayers(Report &report, const LayerFigures &f);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
