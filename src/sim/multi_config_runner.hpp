/**
 * @file
 * One-pass multi-configuration simulation.
 *
 * Producing the access stream (raster + sampler) is the expensive
 * half of a frame, so each frame is rendered once and fanned out to
 * every consumer: cache simulators (CacheSim and friends), the
 * working-set statistics collector and the push-architecture model.
 * This is how all the parameter sweeps (Figures 9/10, Tables 2/3/5-8)
 * are produced.
 *
 * The fan-out works at two levels. Within one runner, every
 * registered consumer sees the frame. Across runners, runLockstep()
 * drives a *group* of runners built over one Workload from a single
 * rasterization: each runner keeps its own supervision — gate
 * (cancel, budget, deadline, revival), quarantine, checkpoint,
 * manifest, metrics — and only the render is shared, so every
 * runner's artifacts are byte-identical to running it alone.
 * runSupervised() is the one-runner case of the same driver.
 */
#ifndef MLTC_SIM_MULTI_CONFIG_RUNNER_HPP
#define MLTC_SIM_MULTI_CONFIG_RUNNER_HPP

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "core/push_model.hpp"
#include "obs/observability.hpp"
#include "sim/animation_driver.hpp"
#include "sim/resilience.hpp"
#include "trace/working_set_collector.hpp"
#include "util/error.hpp"

namespace mltc {

/** Everything measured for one frame across all registered consumers. */
struct FrameRow
{
    int frame = 0;
    FrameStats raster;                    ///< pipeline counters
    std::vector<CacheFrameStats> sims;    ///< one per registered CacheSim
    std::optional<FrameWorkingSet> working_sets;
    uint64_t push_bytes = 0;              ///< oracle push memory (if enabled)
};

/** Per-frame observer; also receives the row after it is stored. */
using RowCallback = std::function<void(const FrameRow &)>;

/** Per-simulator record in the run manifest. */
struct SimManifestEntry
{
    std::string label;
    bool quarantined = false;      ///< threw and was isolated
    int quarantined_at_frame = -1; ///< frame of the first throw
    Error error;                   ///< what it threw
    uint32_t restart_failures = 0; ///< consecutive failures at run end
};

/**
 * Per-simulator quarantine + crash-loop state, carried across
 * checkpoint/resume so a resumed run continues the same backoff ladder.
 */
struct SimQuarantine
{
    bool dead = false;        ///< not consuming accesses
    int at_frame = -1;        ///< frame of the most recent failure
    Error error;              ///< what it threw most recently
    uint32_t failures = 0;    ///< consecutive failures (clean frame resets)
    int revive_at_frame = -1; ///< scheduled restart frame (-1 = none)
};

/**
 * Result of a supervised run: how it ended, how far it got, and the
 * status of every registered simulator. Written next to the checkpoint
 * as `<checkpoint>.manifest` (CSV).
 */
struct RunManifest
{
    RunOutcome outcome = RunOutcome::Completed;
    int frames_completed = 0;  ///< rows harvested over the run's lifetime
    int next_frame = 0;        ///< where a resume would continue
    std::string checkpoint;    ///< final checkpoint path ("" if none)
    int checkpoint_write_failures = 0; ///< commits skipped on I/O failure
    std::vector<SimManifestEntry> sims;

    /** Number of quarantined simulators. */
    size_t quarantinedCount() const;
};

class MultiConfigRunner;

/** One runner's place in a lockstep group; see runLockstep(). */
struct LockstepLeg
{
    MultiConfigRunner *runner = nullptr; ///< not owned
    ResilienceConfig rc;                 ///< this leg's supervision
    RowCallback cb;                      ///< fires per harvested row

    /**
     * Profiler annotation (e.g. "leg:<name>") that roots every sample
     * taken while this leg's simulators consume a frame or the leg
     * settles it; null = none.
     */
    const char *profile_root = nullptr;

    RunManifest manifest;     ///< how the leg's run ended
    std::exception_ptr error; ///< set instead when the leg threw
};

/**
 * Run a lockstep group: render each frame of the runners' shared
 * workload once and fan it out to every live leg.
 *
 * Every runner must be built over the same Workload with the same
 * DriverConfig. Rendering starts at the smallest start frame among the
 * legs; a leg resumed at frame k joins when the render reaches k. Each
 * leg runs its own gate every frame — cancellation (read once per
 * frame for the whole group, so every leg stops at the same boundary),
 * wall budget, deadline stop, quarantine revival — and a leg that
 * stops is detached while the others continue. The group owns the one
 * `frame` bracket (trace B/E, profiler stage) per rendered frame. A
 * --deadline-ms frame is timed over the shared render plus every
 * leg's harvest and audit.
 *
 * A leg whose setup throws (a corrupt checkpoint at resume, say), or
 * whose supervision steps throw mid-run (its row callback, say), gets
 * the exception in LockstepLeg::error and drops out alone; every other
 * leg gets its RunManifest. A simulator that throws is quarantined
 * within its leg as in a solo run. An exception escaping the shared
 * render itself (the rasterizer, an unguarded collector) propagates.
 * Not thread-safe: one group per thread (the shared TextureManager is
 * touched only by that thread).
 */
void runLockstep(std::span<LockstepLeg> legs);

/** Owns the consumers and runs the animation once. */
class MultiConfigRunner
{
  public:
    /**
     * @param workload the scene/animation to drive (must outlive the
     *        runner; its TextureManager is shared by all consumers)
     * @param config frame count, filter, resolution
     */
    MultiConfigRunner(Workload &workload, const DriverConfig &config);
    ~MultiConfigRunner();

    /** Register a cache simulator; returned reference stays valid. */
    CacheSim &addSim(const CacheSimConfig &config, std::string label);

    /** Register the working-set statistics collector (at most one). */
    WorkingSetCollector &addWorkingSets(std::vector<uint32_t> l2_tiles,
                                        std::vector<uint32_t> l1_tiles);

    /** Register the push-architecture oracle model (at most one). */
    PushArchitectureModel &addPushModel();

    /**
     * Attach an extra raw sink (e.g. SetAssocL2Sim); the caller handles
     * its frame boundaries via the row callback.
     */
    void addExtraSink(TexelAccessSink *sink);

    /**
     * Attach per-run observability (not owned; may be null to detach).
     * At every frame boundary the runner re-derives the registry's
     * counters/gauges from the simulators' cumulative totals, appends
     * one JSONL snapshot row, and emits per-simulator trace counter
     * tracks (L1/L2/TLB miss rates, AGP bytes). Metric state is derived,
     * never fed back, so attaching observability cannot change a single
     * simulated counter or checkpoint byte.
     */
    void setObservability(Observability *obs) { obs_ = obs; }

    /** Run the animation; rows accumulate and @p cb fires per frame. */
    void run(const RowCallback &cb = {});

    /**
     * Run under watchdog supervision: periodic crash-safe checkpoints,
     * resume, invariant audits at frame boundaries, per-sim quarantine
     * of throwing configurations, per-frame deadline / wall-clock
     * budget, and cooperative SIGINT/SIGTERM cancellation (install the
     * handlers with installCancellationHandlers()). With a default
     * ResilienceConfig this renders exactly what run() renders.
     *
     * A quarantined simulator stops consuming accesses; its partial
     * stats stay in the rows (zero deltas after the throwing frame) and
     * its error is recorded in the returned manifest while the
     * remaining configurations finish. The manifest is also written as
     * CSV to `<checkpoint>.manifest` when checkpointing is enabled.
     *
     * With rc.restart_limit > 0 a quarantined simulator is revived
     * (audit-gated, state intact) at an exponentially backed-off later
     * frame, at most restart_limit consecutive times — a crash-looping
     * configuration stays quarantined instead of burning the run's
     * budget. A clean frame resets the consecutive-failure count.
     *
     * This is runLockstep() over a group of one.
     */
    RunManifest runSupervised(const ResilienceConfig &rc,
                              const RowCallback &cb = {});

    /**
     * Write a crash-safe snapshot of the full runner state (every
     * simulator, working sets, push model, accumulated rows, quarantine
     * records) such that loadCheckpoint() + finishing the run equals an
     * uninterrupted run byte-for-byte.
     * @param next_frame the first frame a resume should render
     */
    void saveCheckpoint(const std::string &path, int next_frame) const;

    /**
     * Restore state written by saveCheckpoint() into an identically
     * configured runner (same sims in the same order, same labels, same
     * collectors).
     * @return the first frame to render
     * @throws mltc::Exception — VersionMismatch on configuration skew,
     *         Truncated/BadMagic/Corrupt on damaged snapshots.
     */
    int loadCheckpoint(const std::string &path);

    /** All rows from the last run(). */
    const std::vector<FrameRow> &rows() const { return rows_; }

    /** Registered simulators, in registration order. */
    const std::vector<std::unique_ptr<CacheSim>> &sims() const
    {
        return sims_;
    }

    /**
     * Average per-frame host download bytes for simulator @p idx over
     * the last run.
     */
    double averageHostBytesPerFrame(size_t idx) const;

  private:
    friend void runLockstep(std::span<LockstepLeg> legs);

    /** State of one supervised run (defined in the .cpp). */
    struct Supervision;

    // Supervision steps, driven per frame by runLockstep().

    /**
     * Start a supervised run: load the checkpoint on resume (may
     * throw), arm the quarantine guards, which forward under
     * @p profile_root (may be null).
     * @return the first frame this runner consumes
     */
    int beginSupervised(const ResilienceConfig &rc, const RowCallback &cb,
                        const char *profile_root);

    /**
     * Per-frame gate, called before every rendered frame — also before
     * frames preceding this runner's start, where only the stop
     * conditions apply. @p cancelled is the group's one read of the
     * cancellation flag. @return false once this runner stops.
     */
    bool gateFrame(int frame, bool cancelled);

    /** The guarded sinks this runner consumes frames through. */
    TexelAccessSink &frameSink();

    /** Harvest the rendered frame's row, then audit every live sim. */
    void harvestFrame(int frame, const FrameStats &fs);

    /**
     * Close the frame: deadline check against the group's @p frame_ms,
     * periodic checkpoint, live telemetry.
     */
    void commitFrame(int frame, double frame_ms);

    /** Final checkpoint + manifest; ends the supervised run. */
    RunManifest endSupervised();

    /** Push /healthz + /runz documents for the supervised run. */
    void publishRunTelemetry(const char *status, int frame);

    /** Harvest one frame boundary into rows_ (shared by run paths). */
    void harvestRow(int frame, const FrameStats &fs, const RowCallback &cb);

    /** Derive metrics + trace counter tracks from the finished row. */
    void publishFrame(const FrameRow &row);

    /** Write the manifest CSV next to the checkpoint. */
    void writeManifest(const RunManifest &manifest) const;

    Workload &workload_;
    DriverConfig config_;
    std::vector<std::unique_ptr<CacheSim>> sims_;
    std::unique_ptr<WorkingSetCollector> working_sets_;
    std::unique_ptr<PushArchitectureModel> push_;
    std::vector<TexelAccessSink *> extra_sinks_;
    Observability *obs_ = nullptr; ///< not owned; null = no observability
    std::vector<FrameRow> rows_;
    std::vector<SimQuarantine> quarantine_; ///< parallel to sims_ (may be empty)
    std::unique_ptr<Supervision> sup_; ///< live during a supervised run
};

} // namespace mltc

#endif // MLTC_SIM_MULTI_CONFIG_RUNNER_HPP
