/**
 * @file
 * batch_dfd_iiwa: one closed-loop client submits a seeded 256-point
 * iiwa ∆FD batch to an async DynamicsServer (one CPU lane at nproc
 * engine threads) and waits for it, over and over. Kernels, the SoA
 * engine and the thread pool do nearly all of the wall time; the
 * server is one handoff per batch.
 */

#include <bit>
#include <cstdio>
#include <memory>
#include <random>

#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "layers.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/server.h"
#include "workloads.h"

namespace perfbench {

using namespace dadu;

namespace {

constexpr int kPoints = 256;
/**
 * Fixed work per second of --seconds, sized from this host's rate
 * (4-core VM, tier-1 build); it does not adapt to the measured speed.
 */
constexpr int kBatchesPerSecond = 1300;
/**
 * Fresh set-ups per run, half before and half after the stream so
 * setup_s, their median, samples two moments of the host's drift.
 */
constexpr int kSetups = 40;
/** Batches per drain round: the server retires job records at drain(). */
constexpr int kBatchesPerDrain = 64;
/** Points of a batch compared bitwise with the scalar kernel. */
constexpr int kParitySample = 16;

std::vector<runtime::DynamicsRequest>
seededBatch(const model::RobotModel &robot, std::uint64_t seed)
{
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
    std::vector<runtime::DynamicsRequest> reqs(kPoints);
    for (runtime::DynamicsRequest &r : reqs) {
        r.q = robot.randomConfiguration(rng);
        r.qd = robot.randomVelocity(rng);
        r.qdd_or_tau = robot.randomVelocity(rng);
    }
    return reqs;
}

/** Robot, lane, server and inputs of one run; building it is set-up. */
class BatchRig
{
  public:
    BatchRig(std::uint64_t seed, SpanLog *spans)
        : robot(model::makeIiwa()), lane(robot, hostThreads()),
          requests(seededBatch(robot, seed)), results(kPoints)
    {
        if (spans) {
            timed.push_back(std::make_unique<TimedBackend>(
                lane, *spans, spans->addTrack("lane0")));
            server.addBackend(*timed.back());
        } else {
            server.addBackend(lane);
        }
        runtime::sched::SchedConfig cfg;
        cfg.obs.metrics = spans != nullptr;
        server.setPolicy(cfg);
        server.start();
        const int id = submit();
        server.wait(id);
        first_ok = server.jobOutcome(id) == runtime::JobOutcome::Completed;
        server.drain();
    }

    int
    submit()
    {
        return server.submit(runtime::FunctionType::DeltaFD, requests.data(),
                             requests.size(), results.data());
    }

    model::RobotModel robot;
    runtime::CpuBatchedBackend lane;
    std::vector<std::unique_ptr<TimedBackend>> timed;
    runtime::DynamicsServer server;
    std::vector<runtime::DynamicsRequest> requests;
    std::vector<runtime::DynamicsResult> results;
    bool first_ok = false;
};

struct BatchRun
{
    StreamRecord rec;          ///< one client; a tick is one batch
    double round_us_sum = 0.0; ///< every batch
    std::size_t failed = 0;    ///< jobs that did not complete
    double wall_us = 0.0;
    runtime::ServerStats server{};
    runtime::sched::SchedStats sched{};
};

BatchRun
runBatches(BatchRig &rig, int batches, SpanLog *spans, int track)
{
    BatchRun run;
    run.rec.clients.resize(1);
    run.rec.ticks_per_round = kBatchesPerDrain;
    ClientTicks &rec = run.rec.clients[0];
    rec.us.reserve(static_cast<std::size_t>(batches));
    rec.ok.reserve(static_cast<std::size_t>(batches));
    auto drain = [&] {
        runtime::ServerStats s;
        runtime::sched::SchedStats ss;
        rig.server.drain(&s, &ss);
        run.server.jobs += s.jobs;
        run.server.tasks += s.tasks;
        run.sched.steals += ss.steals;
        run.sched.coalesced_items += ss.coalesced_items;
        run.rec.marks.push_back(
            markNow(static_cast<double>(run.server.tasks)));
    };
    run.rec.marks.push_back(markNow(0.0));
    const double start = run.rec.marks.back().t_us;
    for (int b = 0; b < batches; ++b) {
        const double t0 = nowUs();
        const int id = rig.submit();
        const double t1 = nowUs();
        rig.server.wait(id);
        const double t2 = nowUs();
        if (spans) {
            spans->record(track, "DynamicsServer::submit", t0, t1);
            spans->record(track, "DynamicsServer::wait", t1, t2);
        }
        run.round_us_sum += t2 - t0;
        const bool ok =
            rig.server.jobOutcome(id) == runtime::JobOutcome::Completed;
        rec.add(t2 - t0, ok);
        run.failed += !ok;
        if ((b + 1) % kBatchesPerDrain == 0)
            drain();
    }
    run.wall_us = nowUs() - start;
    return run;
}

bool
bitwiseEqual(const linalg::VectorX &a, const linalg::VectorX &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]))
            return false;
    return true;
}

bool
bitwiseEqual(const linalg::MatrixX &a, const linalg::MatrixX &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (std::bit_cast<std::uint64_t>(a(r, c)) !=
                std::bit_cast<std::uint64_t>(b(r, c)))
                return false;
    return true;
}

/**
 * The SoA parity contract: a seeded sample of the batch's results is
 * bitwise-equal to the scalar workspace ∆FD.
 */
void
checkParity(const BatchRig &rig, std::uint64_t seed, Report &report)
{
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed + 17));
    std::uniform_int_distribution<int> pick(0, kPoints - 1);
    algo::DynamicsWorkspace ws(rig.robot);
    algo::FdDerivatives ref;
    int mismatches = 0;
    for (int k = 0; k < kParitySample; ++k) {
        const int i = pick(rng);
        const runtime::DynamicsRequest &r = rig.requests[i];
        const runtime::DynamicsResult &out = rig.results[i];
        algo::fdDerivatives(rig.robot, ws, r.q, r.qd, r.qdd_or_tau, ref);
        if (!bitwiseEqual(out.qdd, ref.qdd) ||
            !bitwiseEqual(out.dqdd_dq, ref.dqdd_dq) ||
            !bitwiseEqual(out.dqdd_dqd, ref.dqdd_dqd))
            ++mismatches;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d of %d sampled points differ",
                  mismatches, kParitySample);
    report.check("dfd_bitwise_scalar", mismatches == 0, buf);
}

/** Build and time one fresh rig (its first batch included). */
std::unique_ptr<BatchRig>
timedRig(std::uint64_t seed, SpanLog *spans, std::vector<double> &setup_s,
         bool &first_ok)
{
    const double t0 = nowUs();
    auto rig = std::make_unique<BatchRig>(seed, spans);
    setup_s.push_back((nowUs() - t0) * 1e-6);
    first_ok = first_ok && rig->first_ok;
    return rig;
}

void
checkRun(const BatchRig &rig, const BatchRun &run, std::uint64_t seed,
         Report &report)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu of %zu jobs did not complete",
                  run.failed, run.rec.clients[0].us.size());
    report.check("jobs_completed", run.failed == 0, buf);
    checkParity(rig, seed, report);
}

} // namespace

void
runBatchDfdIiwa(const Args &args, Report &report)
{
    // Whole drain rounds, so every epoch is whole rounds. The traced
    // run streams twice (untraced, then traced), half the work each,
    // so it takes about as long as an untraced run.
    const int work = kBatchesPerSecond * args.seconds / (args.trace ? 2 : 1);
    const int batches =
        (work + kBatchesPerDrain - 1) / kBatchesPerDrain * kBatchesPerDrain;
    std::vector<double> setup_s;
    bool first_ok = true;
    for (int i = 0; i < kSetups / 2 - 1; ++i)
        timedRig(args.seed, nullptr, setup_s, first_ok);
    std::unique_ptr<BatchRig> rig =
        timedRig(args.seed, nullptr, setup_s, first_ok);
    checkParity(*rig, args.seed, report);
    printProvenance(args, rig->lane.engine().threadCount(),
                    rig->lane.engine().laneWidth());
    const BatchRun run = runBatches(*rig, batches, nullptr, -1);
    for (int i = 0; i < kSetups / 2; ++i)
        timedRig(args.seed, nullptr, setup_s, first_ok);
    report.check("first_batch_completed", first_ok,
                 "the set-up batch of every fresh rig completed");
    checkRun(*rig, run, args.seed, report);
    report.operations(static_cast<std::uint64_t>(batches), run.failed);
    // A batch is "in period" within the MPC workloads' 10 ms control
    // period: a horizon linearization must fit in one tick.
    const EndToEnd e = summarize(run.rec, 1e4, setup_s);
    if (!args.trace) {
        reportEndToEnd(report, e);
        return;
    }
    rig.reset();

    // Traced run: the same work again with every layer instrumented.
    SpanLog spans;
    std::vector<double> traced_setup;
    rig = timedRig(args.seed, &spans, traced_setup, first_ok);
    runtime::obs::MetricsRegistry reg0(1), reg1(1);
    rig->server.metricsSnapshot(reg0);
    const auto tally0 = laneTallies(rig->timed);
    const BatchRun trun =
        runBatches(*rig, batches, &spans, spans.addTrack("client0"));
    checkRun(*rig, trun, args.seed, report);
    rig->server.metricsSnapshot(reg1);

    StreamCounts c;
    c.rounds = batches;
    c.jobs = static_cast<double>(trun.server.jobs);
    c.round_us_sum = trun.round_us_sum;
    c.wall_us = trun.wall_us;
    c.lanes = 1;
    c.sched = trun.sched;
    LayerFigures f;
    streamFigures(c, registryDelta(reg0, reg1), tally0,
                  laneTallies(rig->timed), f);
    const double traced_rate =
        summarize(trun.rec, 1e4, traced_setup).ticks_per_s;
    f.trace_overhead_pct = 100.0 * (e.ticks_per_s - traced_rate) / e.ticks_per_s;
    std::printf("trace overhead: untraced %.2f batches/s, traced %.2f "
                "batches/s\n",
                e.ticks_per_s, traced_rate);
    f.dropped_spans = spans.dropped();
    const std::vector<runtime::DynamicsRequest> requests = rig->requests;
    rig.reset();

    const model::RobotModel robot = model::makeIiwa();
    f.ledger = runLedger(robot, requests, hostThreads(), spans,
                         spans.addTrack("ledger"));
    writeSpans(spans, args);
    reportLayers(report, f);
}

} // namespace perfbench
