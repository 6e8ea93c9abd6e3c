/**
 * @file
 * DynamicsBackend: the one request/completion interface every
 * rigid-body-dynamics consumer submits to, and every execution
 * engine serves.
 *
 * The paper's central claim is that one function-level interface
 * (Table I) covers every dynamics consumer; this layer makes that
 * claim executable on the software side. A workload builds a batch
 * of DynamicsRequests and submits it; whether the batch runs on the
 * host CPU through the zero-allocation batched engine, through the
 * cycle-accurate accelerator simulator, or through the closed-form
 * analytic model is a backend choice, invisible to the caller.
 *
 * Timing semantics: BatchStats::total_us is the batch makespan in
 * backend time — measured wall-clock for CPU backends, modeled
 * microseconds for the accelerator paths — so schedulers can compose
 * makespans from heterogeneous backends with one unit.
 */

#ifndef DADU_RUNTIME_BACKEND_H
#define DADU_RUNTIME_BACKEND_H

#include <cstddef>
#include <memory>
#include <vector>

#include "model/robot_model.h"
#include "runtime/request.h"

namespace dadu::runtime {

using model::RobotModel;

/** Abstract dynamics execution backend. */
class DynamicsBackend
{
  public:
    virtual ~DynamicsBackend() = default;

    /** Short backend name for reports ("cpu-batched", ...). */
    virtual const char *name() const = 0;

    /** The robot this backend instance is configured for. */
    virtual const RobotModel &robot() const = 0;

    /**
     * True when the backend runs off the host CPU (so its batches
     * can overlap host-side work in a schedule); false for backends
     * that compete with the caller for host cores.
     */
    virtual bool offloaded() const = 0;

    /**
     * A second, independently-submittable instance of this backend
     * for the same robot — what DynamicsServer shards batches
     * across. Cheap where the configuration work can be reused (the
     * accelerator clones its fitted bitstream). Returns null for
     * backends that cannot be replicated.
     */
    virtual std::unique_ptr<DynamicsBackend> clone() const
    {
        return nullptr;
    }

    /**
     * Execute @p count requests of @p fn, writing @c results[i] for
     * request i. Results are caller-provided storage (resized in
     * place, reusing capacity) so the steady path of a well-behaved
     * backend performs no heap allocation.
     *
     * The return value (mirrored into @p stats->status when stats is
     * provided) is the error channel: a non-Ok status means the
     * results were NOT written and the batch may be retried
     * (TransientFailure) or the backend abandoned (BackendDown). The
     * three production backends return InvalidRequest for a batch
     * with a request whose inputs do not match the robot's shape or
     * whose seed set is malformed, and Ok otherwise; fault-injecting
     * decorators and future remote transports may also fail.
     */
    virtual SubmitStatus submit(FunctionType fn,
                                const DynamicsRequest *requests,
                                std::size_t count, DynamicsResult *results,
                                BatchStats *stats = nullptr) = 0;

    /** Vector convenience over the span entry point. */
    SubmitStatus
    submit(FunctionType fn, const std::vector<DynamicsRequest> &requests,
           std::vector<DynamicsResult> &results, BatchStats *stats = nullptr)
    {
        if (results.size() < requests.size())
            results.resize(requests.size());
        return submit(fn, requests.data(), requests.size(), results.data(),
                      stats);
    }
};

} // namespace dadu::runtime

#endif // DADU_RUNTIME_BACKEND_H
