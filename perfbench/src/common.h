/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * wall clock, order statistics, process memory, the provenance
 * stamp, and the report that prints every metric with its unit and
 * ends the output with the one-line JSON result.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string git_sha = "unknown";  ///< stamped by run.py
    std::string src_hash = "unknown"; ///< stamped by run.py
    std::string out_dir = ".";        ///< where traced spans are written
};

/** Returns false (after printing why) on a malformed command line. */
bool parseArgs(int argc, char **argv, Args &args);

/** Monotonic wall clock in microseconds. */
double nowUs();

/**
 * Nearest-rank percentile (p in [0, 100]) of @p v; sorts @p v in
 * place. Returns 0 for an empty sample.
 */
double percentile(std::vector<double> &v, double p);

/** Median of a copy of @p v. */
double median(std::vector<double> v);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Hardware threads of this host (at least 1). */
int hostThreads();

/**
 * The benchmark's result: end-to-end or per-layer metrics by name,
 * each printed as it is set with its unit (and sample count for
 * order statistics), the output checks, and the attempted/failed
 * operation counts. finish() prints the final JSON line.
 */
class Report
{
  public:
    /** Record and print one metric. @p samples > 0 marks an order
     *  statistic and is printed next to it. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t samples = 0);

    /** Print one figure that is not part of the JSON result. */
    void info(const std::string &name, double value, const std::string &unit,
              std::size_t samples = 0) const;

    /** Record and print one output check. */
    void check(const std::string &name, bool ok, const std::string &detail);

    /** Operations attempted and failed (degraded ticks, lost jobs). */
    void operations(std::uint64_t attempted, std::uint64_t failed);

    /**
     * Print the one-line JSON result. @return the process exit code:
     * 0 when every check passed, 1 otherwise.
     */
    int finish() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The ticks of one closed-loop client, in order. */
struct ClientTicks
{
    std::vector<double> us; ///< latency of every tick attempted
    std::vector<char> ok;   ///< 0: degraded tick or job not completed

    void
    add(double tick_us, bool tick_ok)
    {
        us.push_back(tick_us);
        ok.push_back(tick_ok ? 1 : 0);
    }
};

/** Host-wide CPU time stolen by the hypervisor so far, in seconds. */
double hostStealSeconds();

/** Stream progress at one drain: wall µs, dynamics points served so
 *  far, and host steal time so far. */
struct Mark
{
    double t_us;
    double pts;
    double steal_s;
};

/** A mark taken now, after @p pts points were served. */
Mark markNow(double pts);

/**
 * A closed-loop stream: every client's ticks and a mark at the start
 * and after every drain round, each round being ticks_per_round
 * ticks of every client. A "tick" is one closed-loop round of a
 * client: an MPC control tick, or one batch round trip.
 */
struct StreamRecord
{
    std::vector<ClientTicks> clients;
    int ticks_per_round = 1;
    std::vector<Mark> marks;
};

/** What a user of the system sees on one workload. */
struct EndToEnd
{
    double setup_s = 0.0;        ///< median of fresh set-ups
    std::size_t setups = 0;
    double ticks_per_s = 0.0;    ///< non-degraded ticks, all clients
    double tick_p50_us = 0.0;
    double tick_p90_us = 0.0;
    double tick_p99_us = 0.0;
    double tick_in_period_ratio = 0.0;
    double pts_per_s = 0.0;      ///< dynamics points served per second
    std::size_t ticks = 0;       ///< non-degraded ticks, all epochs
    std::size_t epochs = 0;
    std::size_t kept_epochs = 0; ///< epochs the medians are taken over
    std::size_t epoch_min_ticks = 0; ///< smallest epoch's sample count
    std::vector<double> epoch_rates; ///< ticks/s of each epoch
    std::vector<double> epoch_p50s, epoch_p99s;
    std::vector<double> epoch_steal; ///< share of host CPU time stolen
};

/** Ticks per epoch needed for p99 to have 10 samples beyond it. */
inline constexpr std::size_t kTicksPerEpoch = 1000;
/** Host steal share above which an epoch is left out (see summarize). */
inline constexpr double kMaxEpochSteal = 0.03;
/** Most epochs a stream is cut into. */
inline constexpr std::size_t kMaxEpochs = 20;

/**
 * Cut @p rec into epochs of whole drain rounds (at most kMaxEpochs,
 * each with at least kTicksPerEpoch ticks when the stream has them)
 * and report each timing as the median of its per-epoch values, so a
 * few seconds of host slowdown move it less than a whole-run figure.
 * Epochs with heavy hypervisor steal are left out of the medians.
 * Ticks within @p period_us count as in period; a degraded tick is a
 * miss.
 */
EndToEnd summarize(const StreamRecord &rec, double period_us,
                   const std::vector<double> &setup_s);

/** Print every end-to-end metric into @p report. */
void reportEndToEnd(Report &report, const EndToEnd &e);

/**
 * Print the provenance line (build, host and engine configuration)
 * that precedes every result.
 */
void printProvenance(const Args &args, int engine_threads, int lane_width);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
