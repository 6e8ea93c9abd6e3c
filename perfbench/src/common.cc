#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

/** JSON string literal for the identifier-like values we print. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

bool
parseInt(const char *text, long long lo, long long hi, long long &out)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", key.c_str());
            return false;
        }
        const char *val = argv[++i];
        long long v = 0;
        if (key == "--workload") {
            args.workload = val;
        } else if (key == "--seed") {
            if (!parseInt(val, 0, (1LL << 62), v))
                return false;
            args.seed = static_cast<std::uint64_t>(v);
        } else if (key == "--seconds") {
            if (!parseInt(val, 1, 600, v)) {
                std::fprintf(stderr, "--seconds must be 1..600\n");
                return false;
            }
            args.seconds = static_cast<int>(v);
        } else if (key == "--trace") {
            if (!parseInt(val, 0, 1, v)) {
                std::fprintf(stderr, "--trace must be 0 or 1\n");
                return false;
            }
            args.trace = v == 1;
        } else if (key == "--git-sha") {
            args.git_sha = val;
        } else if (key == "--src-hash") {
            args.src_hash = val;
        } else if (key == "--out-dir") {
            args.out_dir = val;
        } else {
            std::fprintf(stderr, "unknown option %s\n", key.c_str());
            return false;
        }
    }
    if (args.workload.empty()) {
        std::fprintf(stderr, "--workload is required\n");
        return false;
    }
    return true;
}

double
nowUs()
{
    using namespace std::chrono;
    return duration<double, std::micro>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size() - 1,
                                  static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

double
median(std::vector<double> v)
{
    return percentile(v, 50.0);
}

double
peakRssMb()
{
    // VmHWM, not getrusage(): ru_maxrss survives exec() and would
    // report the launching process's peak when that is larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

double
hostStealSeconds()
{
    // First line of /proc/stat: "cpu user nice system idle iowait irq
    // softirq steal ..." in clock ticks, summed over every CPU.
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    return n == 8 ? static_cast<double>(v[7]) / sysconf(_SC_CLK_TCK) : 0.0;
}

Mark
markNow(double pts)
{
    return {nowUs(), pts, hostStealSeconds()};
}

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t samples)
{
    if (!std::isfinite(value)) {
        check("finite " + name, false, "value is not finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    if (samples > 0)
        std::printf("metric %-34s %16.6f %-6s (n=%zu)\n", name.c_str(),
                    value, unit.c_str(), samples);
    else
        std::printf("metric %-34s %16.6f %s\n", name.c_str(), value,
                    unit.c_str());
}

void
Report::info(const std::string &name, double value, const std::string &unit,
             std::size_t samples) const
{
    std::printf("info   %-34s %16.6f %-6s (n=%zu)\n", name.c_str(), value,
                unit.c_str(), samples);
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    correct_ = correct_ && ok;
    std::printf("check  %-34s %s  %s\n", name.c_str(), ok ? "PASS" : "FAIL",
                detail.c_str());
}

void
Report::operations(std::uint64_t attempted, std::uint64_t failed)
{
    attempted_ = attempted;
    failed_ = failed;
    const double ratio =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                  : 0.0;
    std::printf("ops    attempted %llu  failed %llu  fail_ratio %.6f\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), ratio);
}

int
Report::finish() const
{
    std::string line = "{\"correct\": ";
    line += correct_ ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
        line += (i ? ", " : "") + quoted(metrics_[i].name) +
                ": {\"value\": " + buf +
                ", \"unit\": " + quoted(metrics_[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
}

EndToEnd
summarize(const StreamRecord &rec, double period_us,
          const std::vector<double> &setup_s)
{
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.setups = setup_s.size();
    const std::size_t rounds = rec.marks.size() - 1;
    std::size_t ok = 0, attempted = 0, in_period = 0;
    for (const ClientTicks &c : rec.clients)
        for (std::size_t t = 0; t < c.us.size(); ++t) {
            ++attempted;
            ok += c.ok[t];
            in_period += c.ok[t] && c.us[t] <= period_us;
        }
    e.ticks = ok;
    e.tick_in_period_ratio =
        attempted ? static_cast<double>(in_period) / attempted : 0.0;
    e.epochs = std::clamp<std::size_t>(ok / kTicksPerEpoch, 1,
                                       std::min(kMaxEpochs, rounds));
    e.epoch_min_ticks = ok;
    std::vector<double> rates, pts, p50s, p90s, p99s, lat;
    for (std::size_t k = 0; k < e.epochs; ++k) {
        const std::size_t r0 = k * rounds / e.epochs;
        const std::size_t r1 = (k + 1) * rounds / e.epochs;
        const std::size_t t0 = r0 * static_cast<std::size_t>(rec.ticks_per_round);
        const std::size_t t1 = r1 * static_cast<std::size_t>(rec.ticks_per_round);
        lat.clear();
        for (const ClientTicks &c : rec.clients)
            for (std::size_t t = t0; t < std::min(t1, c.us.size()); ++t)
                if (c.ok[t])
                    lat.push_back(c.us[t]);
        const double secs = (rec.marks[r1].t_us - rec.marks[r0].t_us) * 1e-6;
        rates.push_back(static_cast<double>(lat.size()) / secs);
        e.epoch_steal.push_back(
            (rec.marks[r1].steal_s - rec.marks[r0].steal_s) /
            (secs * hostThreads()));
        pts.push_back((rec.marks[r1].pts - rec.marks[r0].pts) / secs);
        e.epoch_min_ticks = std::min(e.epoch_min_ticks, lat.size());
        p50s.push_back(percentile(lat, 50.0));
        p90s.push_back(percentile(lat, 90.0));
        p99s.push_back(percentile(lat, 99.0));
    }
    e.epoch_rates = rates;
    e.epoch_p50s = p50s;
    e.epoch_p99s = p99s;

    // Epochs in which the hypervisor stole more than kMaxEpochSteal
    // of the guest's CPU time measure the host, not the program; they
    // are left out unless that would leave fewer than half, in which
    // case the least-stolen half is kept. The choice reads only the
    // steal counter, never the figures themselves.
    std::vector<std::size_t> order(e.epochs);
    for (std::size_t k = 0; k < e.epochs; ++k)
        order[k] = k;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return e.epoch_steal[a] < e.epoch_steal[b];
    });
    std::size_t kept = 0;
    while (kept < e.epochs && e.epoch_steal[order[kept]] <= kMaxEpochSteal)
        ++kept;
    e.kept_epochs = std::max(kept, (e.epochs + 1) / 2);
    auto keptMedian = [&](const std::vector<double> &v) {
        std::vector<double> sel;
        for (std::size_t i = 0; i < e.kept_epochs; ++i)
            sel.push_back(v[order[i]]);
        return median(sel);
    };
    e.ticks_per_s = keptMedian(rates);
    e.pts_per_s = keptMedian(pts);
    e.tick_p50_us = keptMedian(p50s);
    e.tick_p90_us = keptMedian(p90s);
    e.tick_p99_us = keptMedian(p99s);
    return e;
}

void
reportEndToEnd(Report &report, const EndToEnd &e)
{
    report.metric("setup_s", e.setup_s, "s", e.setups);
    report.metric("ticks_per_s", e.ticks_per_s, "1/s");
    report.metric("tick_p50_us", e.tick_p50_us, "us", e.ticks);
    report.metric("tick_p90_us", e.tick_p90_us, "us", e.ticks);
    // Printed, not in the result: on a shared host its run-to-run
    // spread (20-60%) is wider than any bound the result may carry.
    report.info("tick_p99_us", e.tick_p99_us, "us", e.ticks);
    report.metric("tick_in_period_ratio", e.tick_in_period_ratio, "ratio");
    report.metric("pts_per_s", e.pts_per_s, "1/s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    std::vector<double> r = e.epoch_rates;
    std::printf("epochs: %zu, >= %zu ticks each, %zu kept (host steal <= "
                "%.0f%%); ticks/s min %.2f median %.2f max %.2f\n",
                e.epochs, e.epoch_min_ticks, e.kept_epochs,
                100.0 * kMaxEpochSteal, percentile(r, 0.0),
                percentile(r, 50.0), percentile(r, 100.0));
    std::printf("epoch ticks/s:");
    for (double v : e.epoch_rates)
        std::printf(" %.1f", v);
    std::printf("\nepoch p50 us:");
    for (double v : e.epoch_p50s)
        std::printf(" %.1f", v);
    std::printf("\nepoch p99 us:");
    for (double v : e.epoch_p99s)
        std::printf(" %.1f", v);
    std::printf("\nepoch host steal %%:");
    for (double v : e.epoch_steal)
        std::printf(" %.1f", 100.0 * v);
    std::printf("\n");
    if (e.epoch_min_ticks < kTicksPerEpoch)
        std::printf("note: run too short for p99 to have 10 samples beyond "
                    "it in every epoch\n");
}

void
printProvenance(const Args &args, int engine_threads, int lane_width)
{
    std::printf(
        "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
        "\"trace\": %d, \"git_sha\": %s, \"src_hash\": %s, "
        "\"compiler\": %s, \"build_type\": %s, \"dadu_march\": %s, "
        "\"fp_contract\": %s, \"nproc\": %d, \"engine_threads\": %d, "
        "\"soa_lane_width\": %d}\n",
        quoted(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.seconds,
        args.trace ? 1 : 0, quoted(args.git_sha).c_str(),
        quoted(args.src_hash).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
        quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_MARCH).c_str(),
        quoted(PERFBENCH_FP_CONTRACT).c_str(), hostThreads(), engine_threads,
        lane_width);
}

} // namespace perfbench
