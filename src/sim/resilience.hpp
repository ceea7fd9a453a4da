/**
 * @file
 * Resilience configuration, cooperative cancellation and the one
 * RunSupervisor behind both sweeps and multi-tenant stream serving.
 *
 * Three coordinated pieces (see docs/checkpoint_format.md and
 * docs/fault_model.md):
 *
 *  - crash-safe checkpoint/resume of the full simulator state, so a
 *    killed run finishes from its last checkpoint with byte-identical
 *    CSV output;
 *  - the always-on state invariant auditor (core/audit.hpp), run at
 *    frame and checkpoint boundaries;
 *  - watchdog supervision: a per-step deadline, a wall-clock budget,
 *    and SIGINT/SIGTERM handlers that request a final checkpoint at
 *    the next step boundary instead of dying mid-write.
 *
 * All knobs flow through resilienceFromCli() so every bench and example
 * exposes the same flags: --checkpoint=PATH, --checkpoint-every=N,
 * --resume, --deadline-ms=D, --budget-ms=B, --audit=LEVEL,
 * --die-after-checkpoint=N, --restart-limit=N (sweeps only).
 */
#ifndef MLTC_SIM_RESILIENCE_HPP
#define MLTC_SIM_RESILIENCE_HPP

#include <chrono>
#include <functional>
#include <string>

#include "core/audit.hpp"
#include "util/cli.hpp"

namespace mltc {

class Observability;

/** Supervision knobs of a RunSupervisor. */
struct ResilienceConfig
{
    /** Checkpoint file; empty disables checkpointing entirely. */
    std::string checkpoint_path;

    /** Checkpoint every N frames (0 = only on cancellation/stop). */
    uint32_t checkpoint_every = 0;

    /** Resume from checkpoint_path instead of starting at frame 0. */
    bool resume = false;

    /**
     * Per-step (sweep frame, stream round) wall-clock deadline in
     * milliseconds; a step exceeding it stops the run at the next
     * boundary with a checkpoint (0 = no deadline).
     */
    double frame_deadline_ms = 0.0;

    /** Whole-run wall-clock budget in milliseconds (0 = unlimited). */
    double wall_budget_ms = 0.0;

    /** Invariant auditing at frame/checkpoint boundaries. */
    AuditLevel audit = AuditLevel::Cheap;

    /**
     * Crash-path test hook: raise SIGKILL immediately after the Nth
     * periodic checkpoint commits (0 = disabled). Lets tests and
     * scripts/kill_resume.sh kill a run at a deterministic point.
     */
    uint32_t die_after_checkpoints = 0;

    /**
     * Crash-loop containment: revive a quarantined simulator after an
     * exponential frame backoff and a clean audit, up to this many
     * consecutive failures — one more and it stays quarantined for the
     * rest of the run. A clean frame resets the consecutive count.
     * 0 = never revive (quarantine is permanent, the pre-existing
     * behaviour). Sweeps only: the stream runner rejects it.
     */
    uint32_t restart_limit = 0;
};

/** How a supervised run ended. */
enum class RunOutcome : uint8_t
{
    Completed,        ///< every step ran
    Cancelled,        ///< SIGINT/SIGTERM (checkpointed at the boundary)
    DeadlineExceeded, ///< a step overran --deadline-ms
    BudgetExhausted,  ///< the run overran --budget-ms
};

/** Stable name of @p outcome for the manifest. */
const char *runOutcomeName(RunOutcome outcome);

/**
 * The watchdog and checkpoint policy of one supervised run, driven at
 * the runner's step boundaries (sweep frames, stream rounds). admit()
 * gates a step on cancellation, a past deadline overrun and the wall
 * budget (counted from construction); commit() checks the deadline,
 * then takes the periodic checkpoint, skipping a failed commit with
 * backoff (the next attempt waits 1, 2, 4 ... 64 periods) and raising
 * SIGKILL after the --die-after-checkpoint'th success; finish() dumps
 * the watchdog bundle, flushes observability and writes the final
 * checkpoint. A step's checkpoint resumes at the next step; an overrun
 * step skips its periodic one, since the final one resumes there too.
 */
class RunSupervisor
{
  public:
    /** The runner's checkpoint writer: (path, step to resume at). */
    using SaveFn = std::function<void(const std::string &path, int next)>;

    /**
     * @p obs (not owned, may be null) gets the `checkpoint.write_failed`
     * counter and the final flush.
     * @throws mltc::Exception (BadArgument) on a resume without a path.
     */
    RunSupervisor(const ResilienceConfig &rc, SaveFn save,
                  Observability *obs);

    /** @return false once the run stops; see outcome(). */
    bool admit(bool cancelled);

    /** Close a step that took @p step_ms; @p next resumes after it. */
    void commit(int next, double step_ms);

    /** End the run with a final checkpoint resuming at @p next. */
    void finish(int next);

    const ResilienceConfig &config() const { return rc_; }
    RunOutcome outcome() const { return outcome_; }

    /** Failed checkpoint commits, periodic and final. */
    int checkpointWriteFailures() const { return write_failures_; }

  private:
    ResilienceConfig rc_;
    SaveFn save_;
    Observability *obs_;
    std::chrono::steady_clock::time_point start_;
    RunOutcome outcome_ = RunOutcome::Completed;
    uint32_t checkpoints_written_ = 0;
    int write_failures_ = 0;
    uint32_t ckpt_backoff_ = 0; ///< doubling skip multiplier (0 = healthy)
    int ckpt_retry_at_ = -1;    ///< first step allowed to retry commits
};

/** Trace (flushed), flight-record and flight-dump a quarantine. */
void quarantineNotice(const char *event, double value);

/**
 * Build a ResilienceConfig from the shared command-line flags.
 * @throws mltc::Exception (BadArgument) on malformed values.
 */
ResilienceConfig resilienceFromCli(const CommandLine &cli);

/**
 * Install SIGINT/SIGTERM handlers that set the cancellation flag. The
 * handlers only flip a sig_atomic_t; the supervised run loop polls it
 * at frame boundaries and performs the final checkpoint itself.
 */
void installCancellationHandlers();

/** True once SIGINT/SIGTERM arrived (or requestCancellation() ran). */
bool cancellationRequested();

/** Programmatic cancellation (tests; same path as the signals). */
void requestCancellation();

/** Clear the flag (between supervised runs in one process). */
void clearCancellation();

} // namespace mltc

#endif // MLTC_SIM_RESILIENCE_HPP
