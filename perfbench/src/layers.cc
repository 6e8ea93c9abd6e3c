#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "algorithms/batched.h"
#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "common.h"
#include "runtime/backends.h"
#include "runtime/server.h"

namespace perfbench {

using namespace dadu;

int
SpanLog::addTrack(const std::string &name)
{
    tracks_.push_back({name, {}, 0});
    tracks_.back().spans.reserve(kSpansPerTrack);
    return static_cast<int>(tracks_.size()) - 1;
}

void
SpanLog::record(int track, const char *name, double t0_us, double t1_us)
{
    Track &t = tracks_[static_cast<std::size_t>(track)];
    if (t.spans.size() < kSpansPerTrack)
        t.spans.push_back({name, t0_us, t1_us});
    else
        ++t.dropped;
}

std::uint64_t
SpanLog::dropped() const
{
    std::uint64_t n = 0;
    for (const Track &t : tracks_)
        n += t.dropped;
    return n;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double base = INFINITY;
    for (const Track &t : tracks_)
        if (!t.spans.empty())
            base = std::min(base, t.spans.front().t0_us);
    if (!std::isfinite(base))
        base = 0.0;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        std::fprintf(f,
                     "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                     first ? "" : ",\n", i, tracks_[i].name.c_str());
        first = false;
        for (const Span &s : tracks_[i].spans)
            std::fprintf(f,
                         ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                         s.name, i, s.t0_us - base, s.t1_us - s.t0_us);
    }
    std::fprintf(f, "\n], \"droppedSpans\": %llu}\n",
                 static_cast<unsigned long long>(dropped()));
    return std::fclose(f) == 0;
}

TimedBackend::TimedBackend(runtime::DynamicsBackend &inner, SpanLog &spans,
                           int track)
    : inner_(inner), spans_(spans), track_(track)
{}

runtime::SubmitStatus
TimedBackend::submit(runtime::FunctionType fn,
                     const runtime::DynamicsRequest *requests,
                     std::size_t count, runtime::DynamicsResult *results,
                     runtime::BatchStats *stats)
{
    const double t0 = nowUs();
    const runtime::SubmitStatus st =
        inner_.submit(fn, requests, count, results, stats);
    const double t1 = nowUs();
    BackendTally &t = tally_[static_cast<std::size_t>(fn)];
    ++t.calls;
    t.points += count;
    t.busy_us += t1 - t0;
    spans_.record(track_, runtime::functionName(fn), t0, t1);
    return st;
}

namespace {

/** Rounds of the interleaved ledger; each layer gets one slot a round. */
constexpr int kLedgerRounds = 9;
/** Wall time each layer's slot of a round aims at. */
constexpr double kSlotUs = 25000.0;

/**
 * Time @p reps calls of @p fn, recording one span per call.
 * @return µs per call.
 */
template <class F>
double
timeReps(F &&fn, int reps, SpanLog &spans, int track, const char *name)
{
    const double t0 = nowUs();
    for (int r = 0; r < reps; ++r) {
        const double s0 = nowUs();
        fn();
        spans.record(track, name, s0, nowUs());
    }
    return (nowUs() - t0) / reps;
}

} // namespace

LedgerResult
runLedger(const runtime::RobotModel &robot,
          const std::vector<runtime::DynamicsRequest> &requests, int threads,
          SpanLog &spans, int track)
{
    const int n = static_cast<int>(requests.size());
    std::vector<linalg::VectorX> q, qd, tau;
    for (const runtime::DynamicsRequest &r : requests) {
        q.push_back(r.q);
        qd.push_back(r.qd);
        tau.push_back(r.qdd_or_tau);
    }

    algo::DynamicsWorkspace ws(robot);
    std::vector<algo::FdDerivatives> scalar_out(requests.size());
    algo::BatchedDynamics engine_1t(robot, 1);
    algo::BatchedDynamics engine_nt(robot, threads);
    runtime::CpuBatchedBackend backend(robot, threads);
    std::vector<runtime::DynamicsResult> backend_out(requests.size());
    runtime::CpuBatchedBackend server_lane(robot, threads);
    runtime::DynamicsServer server(server_lane);
    std::vector<runtime::DynamicsResult> server_out(requests.size());
    server.start();
    int served = 0;

    auto scalar = [&] {
        for (int i = 0; i < n; ++i)
            algo::fdDerivatives(robot, ws, q[i], qd[i], tau[i],
                                scalar_out[i]);
    };
    auto eng1 = [&] {
        engine_1t.batchFdDerivatives(q.data(), qd.data(), tau.data(), n);
    };
    auto engn = [&] {
        engine_nt.batchFdDerivatives(q.data(), qd.data(), tau.data(), n);
    };
    auto back = [&] {
        backend.submit(runtime::FunctionType::DeltaFD, requests.data(),
                       requests.size(), backend_out.data());
    };
    auto serve = [&] {
        const int id = server.submit(runtime::FunctionType::DeltaFD,
                                     requests.data(), requests.size(),
                                     server_out.data());
        server.wait(id);
        if (++served % 64 == 0)
            server.drain(); // retire job records
    };

    struct Layer
    {
        const char *name;
        std::function<void()> fn;
        int reps = 1;
        std::vector<double> us_per_pt;
    };
    std::vector<Layer> layers;
    layers.push_back({"ledger.scalar", scalar, 1, {}});
    layers.push_back({"ledger.engine_1t", eng1, 1, {}});
    layers.push_back({"ledger.engine_nt", engn, 1, {}});
    layers.push_back({"ledger.backend", back, 1, {}});
    layers.push_back({"ledger.server", serve, 1, {}});

    // Calibrate: warm each layer (first-touch allocation, pool spin-up)
    // and size its slot.
    for (Layer &l : layers) {
        l.fn();
        const double t0 = nowUs();
        l.fn();
        const double once = std::max(1.0, nowUs() - t0);
        l.reps = std::clamp(static_cast<int>(kSlotUs / once), 1, 100000);
    }
    for (int round = 0; round < kLedgerRounds; ++round)
        for (Layer &l : layers)
            l.us_per_pt.push_back(
                timeReps(l.fn, l.reps, spans, track, l.name) / n);
    server.stop();

    LedgerResult r;
    r.threads = engine_nt.threadCount();
    r.scalar_us_per_pt = median(layers[0].us_per_pt);
    r.engine_1t_us_per_pt = median(layers[1].us_per_pt);
    r.engine_nt_us_per_pt = median(layers[2].us_per_pt);
    r.backend_us_per_pt = median(layers[3].us_per_pt);
    r.server_us_per_pt = median(layers[4].us_per_pt);
    return r;
}

RegistryDelta
registryDelta(const runtime::obs::MetricsRegistry &before,
              const runtime::obs::MetricsRegistry &after)
{
    using runtime::obs::LatencyHistogram;
    using runtime::obs::LatKind;
    RegistryDelta d;
    std::array<std::uint64_t, LatencyHistogram::kBuckets> wait{};
    for (bool tagged : {false, true}) {
        const LatencyHistogram e0 =
            before.mergedHistogram(tagged, LatKind::EndToEnd);
        const LatencyHistogram e1 =
            after.mergedHistogram(tagged, LatKind::EndToEnd);
        d.jobs += e1.count() - e0.count();
        d.e2e_sum_us += e1.sumUs() - e0.sumUs();
        const LatencyHistogram w0 =
            before.mergedHistogram(tagged, LatKind::QueueWait);
        const LatencyHistogram w1 =
            after.mergedHistogram(tagged, LatKind::QueueWait);
        for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
            wait[static_cast<std::size_t>(i)] +=
                w1.bucketCount(i) - w0.bucketCount(i);
    }
    for (std::uint64_t c : wait)
        d.queue_wait_samples += c;
    // Nearest-rank p99 over the delta buckets, at the bucket's midpoint
    // (the registry's own percentile convention).
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(0.99 * static_cast<double>(d.queue_wait_samples)));
    std::uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kBuckets && d.queue_wait_samples;
         ++i) {
        seen += wait[static_cast<std::size_t>(i)];
        if (seen >= std::max<std::uint64_t>(rank, 1)) {
            const double lo = LatencyHistogram::bucketLowUs(i);
            const double hi = LatencyHistogram::bucketHighUs(i);
            d.queue_wait_p99_us = std::isfinite(hi) ? 0.5 * (lo + hi) : lo;
            break;
        }
    }
    return d;
}

std::array<BackendTally, kFunctionCount>
laneTallies(const std::vector<std::unique_ptr<TimedBackend>> &lanes)
{
    std::array<BackendTally, kFunctionCount> sum{};
    for (const auto &lane : lanes)
        for (int f = 0; f < kFunctionCount; ++f) {
            const BackendTally &t =
                lane->tally(static_cast<runtime::FunctionType>(f));
            BackendTally &s = sum[static_cast<std::size_t>(f)];
            s.calls += t.calls;
            s.points += t.points;
            s.busy_us += t.busy_us;
        }
    return sum;
}

void
streamFigures(const StreamCounts &c, const RegistryDelta &reg,
              const std::array<BackendTally, kFunctionCount> &before,
              const std::array<BackendTally, kFunctionCount> &after,
              LayerFigures &f)
{
    auto delta = [&](runtime::FunctionType fn) {
        const std::size_t i = static_cast<std::size_t>(fn);
        return BackendTally{after[i].calls - before[i].calls,
                            after[i].points - before[i].points,
                            after[i].busy_us - before[i].busy_us};
    };
    auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    double busy = 0.0;
    for (int fn = 0; fn < kFunctionCount; ++fn)
        busy += delta(static_cast<runtime::FunctionType>(fn)).busy_us;
    const BackendTally fd = delta(runtime::FunctionType::FD);
    const BackendTally dfd = delta(runtime::FunctionType::DeltaFD);
    const BackendTally difd = delta(runtime::FunctionType::DeltaiFD);

    f.jobs_per_tick = per(c.jobs, c.rounds);
    // FD jobs are single-point rollout steps: one round trip each.
    f.fd_roundtrips_per_tick = per(static_cast<double>(fd.points), c.rounds);
    f.tick_self_us = per(c.round_us_sum - reg.e2e_sum_us, c.rounds);
    f.handoff_us_per_job =
        per(reg.e2e_sum_us - busy, static_cast<double>(reg.jobs));
    f.queue_wait_p99_us = reg.queue_wait_p99_us;
    f.queue_wait_samples = reg.queue_wait_samples;
    const double tagged = static_cast<double>(c.sched.deadline_met +
                                              c.sched.deadline_misses);
    f.job_deadline_hit_ratio =
        tagged > 0.0 ? static_cast<double>(c.sched.deadline_met) / tagged
                     : 1.0;
    f.steals_per_tick = per(static_cast<double>(c.sched.steals), c.rounds);
    f.coalesced_per_job =
        per(static_cast<double>(c.sched.coalesced_items), c.jobs);
    f.lane_busy_ratio = per(busy, c.lanes * c.wall_us);
    f.busy_share = per(busy, c.round_us_sum);
    f.us_per_call_fd = per(fd.busy_us, static_cast<double>(fd.calls));
    f.us_per_pt_dfd = per(dfd.busy_us, static_cast<double>(dfd.points));
    f.us_per_pt_difd = per(difd.busy_us, static_cast<double>(difd.points));
}

void
writeSpans(const SpanLog &spans, const Args &args)
{
    const std::string path = args.out_dir + "/spans_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    if (spans.write(path))
        std::printf("spans written to %s\n", path.c_str());
    else
        std::printf("could not write spans to %s\n", path.c_str());
}

void
reportLayers(Report &report, const LayerFigures &f)
{
    const LedgerResult &l = f.ledger;
    auto div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    report.metric("ctrl.jobs_per_tick", f.jobs_per_tick, "count");
    report.metric("ctrl.fd_roundtrips_per_tick", f.fd_roundtrips_per_tick,
                  "count");
    report.metric("ctrl.linesearch_trials_per_tick",
                  f.linesearch_trials_per_tick, "count");
    report.metric("ctrl.tick_self_us", f.tick_self_us, "us");
    report.metric("ctrl.gated_share", f.gated_share, "ratio");
    report.metric("ctrl.live_density", f.live_density, "ratio");
    report.metric("server.handoff_us_per_job", f.handoff_us_per_job, "us");
    report.metric("server.queue_wait_p99_us", f.queue_wait_p99_us, "us",
                  f.queue_wait_samples);
    report.metric("server.job_deadline_hit_ratio", f.job_deadline_hit_ratio,
                  "ratio");
    report.metric("server.steals_per_tick", f.steals_per_tick, "count");
    report.metric("server.coalesced_per_job", f.coalesced_per_job, "count");
    report.metric("server.lane_busy_ratio", f.lane_busy_ratio, "ratio");
    report.metric("backend.busy_share", f.busy_share, "ratio");
    report.metric("backend.us_per_call.FD", f.us_per_call_fd, "us");
    report.metric("backend.us_per_pt.DeltaFD", f.us_per_pt_dfd, "us");
    report.metric("backend.us_per_pt.DeltaiFD", f.us_per_pt_difd, "us");
    report.metric("kernel.scalar_us_per_pt", l.scalar_us_per_pt, "us");
    report.metric("engine.us_per_pt_1t", l.engine_1t_us_per_pt, "us");
    report.metric("engine.us_per_pt_nt", l.engine_nt_us_per_pt, "us");
    report.metric("engine.soa_speedup",
                  div(l.scalar_us_per_pt, l.engine_1t_us_per_pt), "x");
    report.metric("engine.scaling_nt",
                  div(l.engine_1t_us_per_pt, l.engine_nt_us_per_pt), "x");
    report.metric("backend.overhead_ratio",
                  div(l.backend_us_per_pt, l.engine_nt_us_per_pt), "x");
    report.metric("server.overhead_ratio",
                  div(l.server_us_per_pt, l.backend_us_per_pt), "x");
    report.metric("trace.overhead_pct", f.trace_overhead_pct, "%");
    std::printf("ledger backend %.4f us/pt  server %.4f us/pt  threads %d  "
                "dropped spans %llu\n",
                l.backend_us_per_pt, l.server_us_per_pt, l.threads,
                static_cast<unsigned long long>(f.dropped_spans));
}

} // namespace perfbench
