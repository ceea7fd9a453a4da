/**
 * @file
 * Parallel sweep executor: runs simulation legs concurrently while
 * keeping every observable output byte-identical to the serial run and
 * invariant to thread count.
 *
 * Two kinds of leg:
 *
 *  - independent legs (addLeg): the body does everything — builds its
 *    own Workload, runs its own MultiConfigRunner. One pool task each.
 *  - lockstep legs (addLockstepLeg): the body builds a runner over a
 *    Workload the executor hands it. run() splits the N legs into
 *    min(jobs, N) contiguous groups, one pool task each; a group
 *    builds one Workload and runLockstep() renders each frame once for
 *    every leg in it. --jobs 1 renders each frame once for the whole
 *    sweep; jobs >= N gives one leg per group, the independent-leg
 *    schedule.
 *
 * Determinism model — compute in parallel, emit in order:
 *
 *  - no mutable state crosses a group: each group has its own
 *    Workload (the TextureManager is touched by the group's thread
 *    only); within a group, legs share the render but each keeps its
 *    own runner and sims (so fault-injection RNG streams are per-leg
 *    exactly as in the serial program), quarantine state, checkpoint
 *    and metrics stream, and writes results only into its own slot;
 *  - console output produced inside a leg goes through
 *    LegContext::printf into a per-leg buffer; SweepExecutor flushes
 *    buffers to stdout strictly in leg registration order (streaming:
 *    leg i prints the moment legs 0..i-1 have printed, even while later
 *    legs are still running);
 *  - CSV/metrics/snapshot emission stays in the drivers, which write
 *    from per-leg results after (or in order during) run() — so the
 *    bytes on disk cannot depend on completion order or grouping.
 *
 * Failure containment mirrors the per-sim quarantine of runSupervised:
 * an exception escaping a leg marks that leg Failed in the
 * SweepManifest and the remaining legs — its group's included — still
 * run. Cooperative cancellation (SIGINT/SIGTERM or
 * requestCancellation()) stops dispatching new legs; already-running
 * legs observe the same flag at frame boundaries via their own
 * supervised gates.
 *
 * See docs/parallelism.md for the full contract.
 */
#ifndef MLTC_SIM_PARALLEL_RUNNER_HPP
#define MLTC_SIM_PARALLEL_RUNNER_HPP

#include <cstdarg>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/multi_config_runner.hpp"
#include "util/cli.hpp"

namespace mltc {

class TelemetryServer;

/** How a sweep leg ended. */
enum class LegOutcome
{
    Completed, ///< ran to the end
    Failed,    ///< an exception escaped the leg body
    Cancelled, ///< cancellation arrived before the leg started
};

const char *legOutcomeName(LegOutcome outcome);

/** Per-leg record in the sweep manifest. */
struct LegResult
{
    std::string name;
    LegOutcome outcome = LegOutcome::Cancelled;
    std::string error;   ///< exception text when outcome == Failed
    double wall_ms = 0.0; ///< leg wall time (diagnostic; never emitted)
};

/** Outcome summary for a whole sweep. */
struct SweepManifest
{
    std::vector<LegResult> legs;

    bool allCompleted() const;

    /**
     * Write `leg,name,outcome,error` rows to @p path. Deliberately
     * excludes timings so the file is byte-identical across thread
     * counts and machines.
     */
    void writeCsv(const std::string &path) const;
};

/**
 * Handed to each leg body: identifies the leg and buffers its console
 * output for in-order flushing.
 */
class LegContext
{
public:
    LegContext(size_t index, std::string name)
        : index_(index), name_(std::move(name))
    {
    }

    size_t index() const { return index_; }
    const std::string &name() const { return name_; }

    /** Buffered stand-in for std::printf. */
    void printf(const char *fmt, ...)
#if defined(__GNUC__)
        __attribute__((format(printf, 2, 3)))
#endif
        ;

    /** Append raw text to the leg's console buffer. */
    void write(const std::string &text) { out_ += text; }

    const std::string &buffered() const { return out_; }

private:
    size_t index_;
    std::string name_;
    std::string out_;
};

/** A sweep leg that consumes its group's shared rendering. */
struct LockstepLegBody
{
    /**
     * Build the leg's runner over the group's @p workload (keep the
     * pointer alive as long as the runner: its sims reference the
     * workload's textures) and return the leg's slot in the group.
     * Throwing fails this leg alone.
     */
    std::function<LockstepLeg(LegContext &,
                              const std::shared_ptr<Workload> &workload)>
        setup;

    /** Report once the group's run ended; @p manifest is this leg's. */
    std::function<void(LegContext &, const RunManifest &manifest)> finish;
};

/**
 * Work-stealing executor for sweep legs.
 *
 * Usage:
 *   SweepExecutor sweep(jobs);
 *   sweep.addLeg("village/bilinear", [&](LegContext &ctx) { ... });
 *   SweepManifest manifest = sweep.run();
 *
 * or, for legs that share one render per group:
 *   sweep.setGroupWorkload([] { return buildWorkload("village"); });
 *   sweep.addLockstepLeg("2 MB L2", {setup, finish});
 *
 * jobs <= 1 runs everything inline on the calling thread in
 * registration order. jobs > 1 runs legs (or groups) on a ThreadPool;
 * outputs are emitted in registration order regardless of completion
 * order, so every jobs count produces identical bytes.
 */
class SweepExecutor
{
public:
    /** @p jobs 0 means ThreadPool::defaultJobs(). */
    explicit SweepExecutor(unsigned jobs = 0);

    /** Register a leg; legs run (or at least emit) in this order. */
    void addLeg(std::string name, std::function<void(LegContext &)> body);

    /**
     * Register a lockstep leg (see the file comment). An executor runs
     * either lockstep legs or independent ones, not both.
     */
    void addLockstepLeg(std::string name, LockstepLegBody body);

    /** How each lockstep group builds its one shared Workload. */
    void
    setGroupWorkload(std::function<Workload()> build)
    {
        build_workload_ = std::move(build);
    }

    /** Effective worker count. */
    unsigned jobs() const { return jobs_; }

    size_t legCount() const { return legs_.size(); }

    /**
     * Publish live per-leg status (pending/running/completed/...) to
     * @p telemetry's /runz endpoint as legs progress (null detaches;
     * not owned). Pure observation: the sweep's outputs and scheduling
     * are byte-identical with or without a server attached.
     */
    void setTelemetry(TelemetryServer *telemetry)
    {
        telemetry_ = telemetry;
    }

    /**
     * Run every leg and stream each leg's buffered console output to
     * stdout in registration order. Returns the manifest; exceptions
     * from leg bodies are captured there, never thrown.
     */
    SweepManifest run();

private:
    struct Leg
    {
        std::string name;
        std::function<void(LegContext &)> body; ///< independent leg
        LockstepLegBody lockstep;               ///< or lockstep leg
    };

    void publishLegStatus(const std::vector<const char *> &status) const;

    /** Run lockstep legs [first, last) as one group. */
    void runGroup(size_t first, size_t last, std::vector<LegContext> &ctxs,
                  SweepManifest &manifest,
                  const std::vector<const char *> &roots) const;

    unsigned jobs_;
    std::vector<Leg> legs_;
    std::function<Workload()> build_workload_;
    TelemetryServer *telemetry_ = nullptr;
};

/**
 * Parse the shared --jobs=N flag (0 or absent = default policy:
 * MLTC_JOBS env, else hardware concurrency).
 * @throws mltc::Exception (BadArgument) on malformed or negative N.
 */
unsigned jobsFromCli(const CommandLine &cli);

} // namespace mltc

#endif // MLTC_SIM_PARALLEL_RUNNER_HPP
