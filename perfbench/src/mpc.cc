/**
 * @file
 * serve2_hyq_gated, the closed-loop MPC workload. Every client is a
 * real receding-horizon iLQR session (ctrl::MpcSession) whose
 * dynamics requests all go through an async DynamicsServer; the plant
 * is stepped with the reference dynamics between ticks, so the loop
 * is closed and each tick waits on the previous one.
 */

#include <barrier>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "algorithms/aba.h"
#include "algorithms/workspace.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "layers.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/obs/metrics.h"
#include "runtime/server.h"
#include "workloads.h"

namespace perfbench {

using namespace dadu;
using linalg::VectorX;

namespace {

constexpr int kKnots = 16;
constexpr double kDt = 0.01;
/** Ticks per drain round: the server retires job records at drain(). */
constexpr int kTicksPerDrain = 16;
/**
 * Fresh set-ups per run, half before and half after the stream so
 * setup_s, their median, samples two moments of the host's drift.
 */
constexpr int kSetups = 16;
/** Ticks replayed on a second rig to check reproducibility. */
constexpr int kReplayTicks = 96;
/**
 * Fixed work per second of --seconds, sized from this host's rate
 * (4-core VM, tier-1 build) so a run takes about that long. The work
 * does not adapt to the measured speed: faster code finishes sooner.
 */
constexpr int kServeTicksPerSecond = 300; ///< per client
/** Plant tracking error allowed over the second half of the run. */
constexpr double kTrackErrBound = 1.0;

struct ClientSpec
{
    int scenario; ///< ctrl::makeScenario index
    double phase;
};

struct MpcSetup
{
    std::vector<ClientSpec> clients;
    runtime::sched::SchedConfig sched;
    ctrl::MpcSession::Config session;
    ctrl::IlqrOptions options;
    int ticks_per_client = 0;
};

/** Plant state of one client, stepped with ABA + manifold Euler. */
struct Plant
{
    explicit Plant(const model::RobotModel &robot) : ws(robot) {}
    algo::DynamicsWorkspace ws;
    VectorX q, qd, qdd, step, q_next, err;
};

/**
 * Everything one run of the MPC workload builds: robot, two 1-thread
 * CPU lanes, server, sessions and plants. Building one (priming
 * solves included) is the set-up that setup_s times. Traced rigs wrap
 * every lane in a TimedBackend and turn on the server's metrics
 * registry.
 */
class MpcRig
{
  public:
    MpcRig(const MpcSetup &setup, SpanLog *spans)
        : robot(model::makeHyq())
    {
        auto lane0 = std::make_unique<runtime::CpuBatchedBackend>(robot, 1);
        threads = lane0->engine().threadCount();
        lane_width = lane0->engine().laneWidth();
        lanes.push_back(std::move(lane0));
        lanes.push_back(lanes[0]->clone());
        runtime::sched::SchedConfig cfg = setup.sched;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (spans) {
                const int track =
                    spans->addTrack("lane" + std::to_string(i));
                timed.push_back(
                    std::make_unique<TimedBackend>(*lanes[i], *spans, track));
                server.addBackend(*timed.back());
            } else {
                server.addBackend(*lanes[i]);
            }
        }
        cfg.obs.metrics = spans != nullptr;
        server.setPolicy(cfg);
        server.start();
        for (const ClientSpec &c : setup.clients) {
            sessions.push_back(std::make_unique<ctrl::MpcSession>(
                robot,
                ctrl::makeScenario(robot, c.scenario, kKnots, kDt, c.phase),
                setup.options, setup.session));
            ctrl::MpcSession &s = *sessions.back();
            const ctrl::IlqrSummary sum = s.start(server);
            priming_cost.push_back(sum.cost);
            primed = primed && sum.converged;
            plants.emplace_back(robot);
            plants.back().q = s.scenario().q0;
            plants.back().qd = s.scenario().qd0;
        }
        server.drain();
    }

    model::RobotModel robot;
    std::vector<std::unique_ptr<runtime::DynamicsBackend>> lanes;
    std::vector<std::unique_ptr<TimedBackend>> timed;
    runtime::DynamicsServer server;
    std::vector<std::unique_ptr<ctrl::MpcSession>> sessions;
    std::vector<Plant> plants;
    std::vector<double> priming_cost;
    bool primed = true;
    int threads = 1;
    int lane_width = 1;
};

/** What one client saw over a tick stream. */
struct ClientRun
{
    double tick_us_sum = 0.0; ///< every tick, degraded included
    std::size_t nonfinite = 0;
    double late_track_err = 0.0; ///< max over the second half
    double cost_at_replay = 0.0; ///< horizon cost after kReplayTicks
    double final_cost = 0.0;
};

/** Server accounting summed over the stream's drains. */
struct StreamRun
{
    StreamRecord rec;
    std::vector<ClientRun> clients;
    double wall_us = 0.0;
    runtime::ServerStats server{};
    runtime::sched::SchedStats sched{};
};

void
accumulate(runtime::DynamicsServer &server, StreamRun &run)
{
    runtime::ServerStats s;
    runtime::sched::SchedStats ss;
    server.drain(&s, &ss);
    run.server.jobs += s.jobs;
    run.server.tasks += s.tasks;
    run.sched.deadline_met += ss.deadline_met;
    run.sched.deadline_misses += ss.deadline_misses;
    run.sched.coalesced_items += ss.coalesced_items;
    run.sched.steals += ss.steals;
    run.sched.rejected_jobs += ss.rejected_jobs;
    run.sched.failed_jobs += ss.failed_jobs;
    run.rec.marks.push_back(markNow(static_cast<double>(run.server.tasks)));
}

bool
allFinite(const VectorX &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        if (!std::isfinite(v[i]))
            return false;
    return true;
}

/** One client's share of a tick stream (runs on its own thread). */
template <class Barrier>
void
tickClient(MpcRig &rig, int c, int ticks, Barrier &barrier, ClientRun &out,
           ClientTicks &rec, SpanLog *spans, int track)
{
    ctrl::MpcSession &session = *rig.sessions[static_cast<std::size_t>(c)];
    Plant &p = rig.plants[static_cast<std::size_t>(c)];
    const double dt = session.scenario().problem.dt;
    rec.us.reserve(static_cast<std::size_t>(ticks));
    rec.ok.reserve(static_cast<std::size_t>(ticks));
    for (int t = 0; t < ticks; ++t) {
        const std::size_t degraded0 = session.stats().degraded_ticks;
        const double t0 = nowUs();
        const VectorX &u = session.tick(rig.server, p.q, p.qd);
        const double t1 = nowUs();
        if (spans)
            spans->record(track, "MpcSession::tick", t0, t1);
        const double us = t1 - t0;
        out.tick_us_sum += us;
        rec.add(us, session.stats().degraded_ticks == degraded0);
        if (!allFinite(u))
            ++out.nonfinite;

        algo::aba(rig.robot, p.ws, p.q, p.qd, u, p.qdd);
        p.step.resize(p.qd.size());
        for (std::size_t j = 0; j < p.qd.size(); ++j)
            p.step[j] = dt * p.qd[j];
        rig.robot.integrateInto(p.q, p.step, p.q_next);
        p.q = p.q_next;
        for (std::size_t j = 0; j < p.qd.size(); ++j)
            p.qd[j] += dt * p.qdd[j];

        if (2 * (t + 1) > ticks) {
            rig.robot.differenceInto(session.solver().problem().q_ref[0],
                                     p.q, p.err);
            out.late_track_err = std::max(out.late_track_err, p.err.maxAbs());
        }
        if (t + 1 == kReplayTicks)
            out.cost_at_replay = session.stats().horizon_cost;
        if ((t + 1) % kTicksPerDrain == 0)
            barrier.arrive_and_wait();
    }
    out.final_cost = session.stats().horizon_cost;
}

/**
 * Run every client of @p rig for @p ticks ticks concurrently, one
 * thread per client, draining the server at a barrier every
 * kTicksPerDrain ticks (no client is inside tick() then).
 */
StreamRun
runStream(MpcRig &rig, int ticks, SpanLog *spans)
{
    const int clients = static_cast<int>(rig.sessions.size());
    StreamRun run;
    run.clients.resize(static_cast<std::size_t>(clients));
    run.rec.clients.resize(static_cast<std::size_t>(clients));
    run.rec.ticks_per_round = kTicksPerDrain;
    std::vector<int> tracks;
    for (int c = 0; c < clients; ++c)
        tracks.push_back(spans ? spans->addTrack("client" + std::to_string(c))
                               : -1);
    auto drain = [&rig, &run]() noexcept { accumulate(rig.server, run); };
    std::barrier barrier(clients, drain);
    run.rec.marks.push_back(markNow(0.0));
    const double t0 = run.rec.marks.back().t_us;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        const std::size_t i = static_cast<std::size_t>(c);
        threads.emplace_back([&, c, i] {
            tickClient(rig, c, ticks, barrier, run.clients[i],
                       run.rec.clients[i], spans, tracks[i]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    run.wall_us = nowUs() - t0;
    return run;
}

/** Set-up timings and checks over every fresh rig of a run. */
struct Setups
{
    std::vector<double> setup_s;
    std::vector<double> first_cost; ///< priming costs of the first rig
    bool priming_reproducible = true;
    bool primed = true;
    std::unique_ptr<MpcRig> replay, main;
};

/** Build and time one fresh rig (priming solves included). */
std::unique_ptr<MpcRig>
timedRig(const MpcSetup &setup, SpanLog *spans, Setups &s)
{
    const double t0 = nowUs();
    auto rig = std::make_unique<MpcRig>(setup, spans);
    s.setup_s.push_back((nowUs() - t0) * 1e-6);
    s.primed = s.primed && rig->primed;
    if (s.first_cost.empty())
        s.first_cost = rig->priming_cost;
    for (std::size_t c = 0; c < s.first_cost.size(); ++c)
        if (std::bit_cast<std::uint64_t>(s.first_cost[c]) !=
            std::bit_cast<std::uint64_t>(rig->priming_cost[c]))
            s.priming_reproducible = false;
    return rig;
}

std::size_t
attempted(const StreamRun &run)
{
    std::size_t n = 0;
    for (const ClientTicks &c : run.rec.clients)
        n += c.us.size();
    return n;
}

std::size_t
completedTicks(const StreamRun &run)
{
    std::size_t n = 0;
    for (const ClientTicks &c : run.rec.clients)
        for (char ok : c.ok)
            n += ok;
    return n;
}

/**
 * Output checks of a stream. With @p rigs.replay set, that second
 * rig also replays the first kReplayTicks ticks, and every client's
 * horizon cost must match the stream's bitwise.
 */
void
checkRun(Setups &rigs, const StreamRun &run, Report &report)
{
    std::size_t nonfinite = 0, failed_jobs = 0;
    double err = 0.0;
    for (const ClientRun &c : run.clients) {
        nonfinite += c.nonfinite;
        err = std::max(err, c.late_track_err);
    }
    failed_jobs = run.sched.rejected_jobs + run.sched.failed_jobs;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%zu non-finite of %zu controls",
                  nonfinite, attempted(run));
    report.check("controls_finite", nonfinite == 0, buf);
    std::snprintf(buf, sizeof(buf), "max late-half error %.4f (bound %.2f)",
                  err, kTrackErrBound);
    report.check("tracking_bounded", err <= kTrackErrBound, buf);
    std::snprintf(buf, sizeof(buf), "%zu rejected or failed jobs",
                  failed_jobs);
    report.check("jobs_completed", failed_jobs == 0, buf);
    report.check("priming_converged", rigs.primed,
                 "every priming solve met a tolerance");
    report.check("priming_reproducible", rigs.priming_reproducible,
                 "priming costs bitwise-equal over fresh set-ups");
    if (!rigs.replay)
        return;
    const StreamRun again = runStream(*rigs.replay, kReplayTicks, nullptr);
    bool same = true;
    for (std::size_t c = 0; c < run.clients.size(); ++c) {
        same = same && std::bit_cast<std::uint64_t>(
                           again.clients[c].final_cost) ==
                           std::bit_cast<std::uint64_t>(
                               run.clients[c].cost_at_replay);
        std::printf("client %zu (%s): cost@%d %.17g  final %.17g\n", c,
                    rigs.main->sessions[c]->scenario().name, kReplayTicks,
                    run.clients[c].cost_at_replay, run.clients[c].final_cost);
    }
    std::snprintf(buf, sizeof(buf), "horizon costs after %d ticks match on "
                  "a fresh rig", kReplayTicks);
    report.check("cost_reproducible", same, buf);
}


/** Controller-side counters summed over a rig's sessions. */
struct SessionTotals
{
    std::size_t jobs = 0;
    long long dense = 0, gated = 0, skipped = 0, live_columns = 0;
};

SessionTotals
sessionTotals(const MpcRig &rig)
{
    SessionTotals t;
    for (const auto &s : rig.sessions) {
        t.jobs += s->stats().jobs;
        const ctrl::IlqrSolver::GatingStats &g = s->solver().gatingStats();
        t.dense += g.dense;
        t.gated += g.gated;
        t.skipped += g.skipped;
        t.live_columns += g.live_columns;
    }
    return t;
}

/** Per-layer figures of a traced stream on @p rig. */
LayerFigures
layerFigures(MpcRig &rig, const StreamRun &run, const SessionTotals &s0,
             const runtime::obs::MetricsRegistry &reg0,
             const std::array<BackendTally, kFunctionCount> &tally0)
{
    const SessionTotals s1 = sessionTotals(rig);
    runtime::obs::MetricsRegistry reg1(rig.server.backendCount());
    rig.server.metricsSnapshot(reg1);

    StreamCounts c;
    c.rounds = static_cast<double>(attempted(run));
    c.jobs = static_cast<double>(s1.jobs - s0.jobs);
    for (const ClientRun &cr : run.clients)
        c.round_us_sum += cr.tick_us_sum;
    c.wall_us = run.wall_us;
    c.lanes = rig.server.backendCount();
    c.sched = run.sched;
    LayerFigures f;
    streamFigures(c, registryDelta(reg0, reg1), tally0,
                  laneTallies(rig.timed), f);

    // A tick rolls out the nominal trajectory once plus once per
    // line-search trial, kKnots FD steps each.
    f.linesearch_trials_per_tick = f.fd_roundtrips_per_tick / kKnots - 1.0;
    const long long gated = s1.gated - s0.gated;
    const long long refreshes =
        (s1.dense - s0.dense) + gated + (s1.skipped - s0.skipped);
    f.gated_share = refreshes ? static_cast<double>(gated) / refreshes : 0.0;
    f.live_density =
        gated ? static_cast<double>(s1.live_columns - s0.live_columns) /
                    (static_cast<double>(gated) * rig.robot.nv())
              : 0.0;
    return f;
}

/** The seeded ledger batch for HyQ: one MPC horizon of states. */
std::vector<runtime::DynamicsRequest>
horizonBatch(const model::RobotModel &robot, std::uint64_t seed)
{
    std::mt19937 rng(static_cast<std::mt19937::result_type>(seed ^ 0x9e3779b9u));
    std::vector<runtime::DynamicsRequest> reqs(kKnots);
    for (runtime::DynamicsRequest &r : reqs) {
        r.q = robot.randomConfiguration(rng);
        r.qd = robot.randomVelocity(rng);
        r.qdd_or_tau = robot.randomVelocity(rng);
    }
    return reqs;
}

void
runMpc(const MpcSetup &setup, const Args &args, Report &report)
{
    // Whole drain rounds, so every epoch is whole rounds. The traced
    // run streams twice (untraced, then traced), half the work each,
    // so it takes about as long as an untraced run.
    const int work = args.trace ? setup.ticks_per_client / 2
                                : setup.ticks_per_client;
    const int ticks =
        (work + kTicksPerDrain - 1) / kTicksPerDrain * kTicksPerDrain;
    Setups rigs;
    for (int i = 0; i < kSetups / 2 - 2; ++i)
        timedRig(setup, nullptr, rigs);
    rigs.replay = timedRig(setup, nullptr, rigs);
    rigs.main = timedRig(setup, nullptr, rigs);
    printProvenance(args, rigs.main->threads, rigs.main->lane_width);
    const StreamRun run = runStream(*rigs.main, ticks, nullptr);
    for (int i = 0; i < kSetups / 2; ++i)
        timedRig(setup, nullptr, rigs);
    checkRun(rigs, run, report);
    report.operations(attempted(run), attempted(run) - completedTicks(run));
    const EndToEnd e = summarize(run.rec, kDt * 1e6, rigs.setup_s);
    if (!args.trace) {
        reportEndToEnd(report, e);
        return;
    }
    rigs = Setups{};

    // Traced run: the same work again with every layer instrumented.
    SpanLog spans;
    Setups traced;
    traced.main = timedRig(setup, &spans, traced);
    MpcRig &rig = *traced.main;
    const SessionTotals s0 = sessionTotals(rig);
    runtime::obs::MetricsRegistry reg0(rig.server.backendCount());
    rig.server.metricsSnapshot(reg0);
    const auto tally0 = laneTallies(rig.timed);
    const StreamRun trun = runStream(rig, ticks, &spans);
    checkRun(traced, trun, report);
    LayerFigures f = layerFigures(rig, trun, s0, reg0, tally0);
    const double plain_rate = e.ticks_per_s;
    const double traced_rate =
        summarize(trun.rec, kDt * 1e6, traced.setup_s).ticks_per_s;
    f.trace_overhead_pct = 100.0 * (plain_rate - traced_rate) / plain_rate;
    std::printf("trace overhead: untraced %.2f ticks/s, traced %.2f ticks/s\n",
                plain_rate, traced_rate);
    f.dropped_spans = spans.dropped();
    traced = Setups{};

    const model::RobotModel robot = model::makeHyq();
    f.ledger = runLedger(robot, horizonBatch(robot, args.seed), hostThreads(),
                         spans, spans.addTrack("ledger"));
    writeSpans(spans, args);
    reportLayers(report, f);
}

/**
 * Scenario phase chosen by the seed, in [0, 0.5): wide enough to vary
 * targets and pushes, narrow enough that the work per tick (line
 * search, gated columns) stays close across seeds.
 */
double
seededPhase(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    return std::uniform_real_distribution<double>(0.0, 0.5)(rng);
}

} // namespace

void
runServe2HyqGated(const Args &args, Report &report)
{
    const double phase = seededPhase(args.seed);
    MpcSetup s;
    s.clients = {{0, phase}, {2, phase + 0.7}};
    s.sched.kind = runtime::sched::PolicyKind::Edf;
    s.sched.coalesce = true;
    s.sched.steal = true;
    s.session.deadline_slack = 4.0;
    s.options.gating = algo::GatingMode::Adaptive;
    s.ticks_per_client = kServeTicksPerSecond * args.seconds;
    runMpc(s, args, report);
}

} // namespace perfbench
