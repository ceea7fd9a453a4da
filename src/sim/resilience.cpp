#include "sim/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/observability.hpp"
#include "obs/trace_event.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mltc {

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed: return "completed";
      case RunOutcome::Cancelled: return "cancelled";
      case RunOutcome::DeadlineExceeded: return "deadline-exceeded";
      case RunOutcome::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

RunSupervisor::RunSupervisor(const ResilienceConfig &rc, SaveFn save,
                             Observability *obs)
    : rc_(rc), save_(std::move(save)), obs_(obs),
      start_(std::chrono::steady_clock::now())
{
    if (rc_.resume && rc_.checkpoint_path.empty())
        throw Exception(ErrorCode::BadArgument,
                        "--resume: requires --checkpoint=PATH");
}

bool
RunSupervisor::admit(bool cancelled)
{
    using MsDouble = std::chrono::duration<double, std::milli>;
    if (outcome_ != RunOutcome::Completed)
        return false; // a deadline overran: stop at this boundary
    if (cancelled)
        outcome_ = RunOutcome::Cancelled;
    else if (rc_.wall_budget_ms > 0.0 &&
             MsDouble(std::chrono::steady_clock::now() - start_).count() >
                 rc_.wall_budget_ms)
        outcome_ = RunOutcome::BudgetExhausted;
    return outcome_ == RunOutcome::Completed;
}

void
RunSupervisor::commit(int next, double step_ms)
{
    if (rc_.frame_deadline_ms > 0.0 && step_ms > rc_.frame_deadline_ms) {
        outcome_ = RunOutcome::DeadlineExceeded;
        return; // finish() checkpoints this same step
    }
    if (rc_.checkpoint_path.empty() || rc_.checkpoint_every == 0 ||
        static_cast<uint32_t>(next) % rc_.checkpoint_every != 0 ||
        next < ckpt_retry_at_)
        return;
    try {
        save_(rc_.checkpoint_path, next);
        ckpt_backoff_ = 0;
        ckpt_retry_at_ = -1;
        if (ChromeTraceWriter *t = globalTracer())
            t->instant("checkpoint.saved", "runner");
        // Crash-path test hook: die *after* the checkpoint committed,
        // leaving exactly the state a real crash would.
        if (rc_.die_after_checkpoints > 0 &&
            ++checkpoints_written_ >= rc_.die_after_checkpoints) {
            std::fflush(nullptr);
            std::raise(SIGKILL);
        }
    } catch (const Exception &e) {
        // A checkpoint is an optimisation: skip it with backoff rather
        // than abort a healthy run.
        ++write_failures_;
        ckpt_backoff_ =
            std::min<uint32_t>(ckpt_backoff_ ? ckpt_backoff_ * 2 : 1, 64);
        ckpt_retry_at_ =
            next + static_cast<int>(ckpt_backoff_ * rc_.checkpoint_every);
        logWarn("RunSupervisor: checkpoint write failed (" +
                e.error().describe() + "); retrying at step " +
                std::to_string(ckpt_retry_at_));
        if (obs_) {
            auto guard = obs_->metrics().updateGuard();
            obs_->metrics().counter("checkpoint.write_failed").inc();
        }
        flightEvent("checkpoint.write_failed", "resilience");
    }
}

void
RunSupervisor::finish(int next)
{
    if (outcome_ == RunOutcome::DeadlineExceeded ||
        outcome_ == RunOutcome::BudgetExhausted)
        flightDump("watchdog");

    // Land every trace event so far even if the process dies before
    // close() (the metrics JSONL sink flushes per line already).
    if (obs_)
        obs_->flush();
    else if (ChromeTraceWriter *t = globalTracer())
        t->flush();

    if (rc_.checkpoint_path.empty())
        return;
    try {
        save_(rc_.checkpoint_path, next);
    } catch (const Exception &e) {
        // The results are in the runner's rows already: keep them.
        ++write_failures_;
        logWarn("RunSupervisor: final checkpoint write failed (" +
                e.error().describe() + ")");
        flightDump("io");
    }
}

void
quarantineNotice(const char *event, double value)
{
    if (ChromeTraceWriter *t = globalTracer()) {
        t->instant(event, "resilience");
        // A quarantine often precedes an operator killing the run:
        // make sure the evidence reaches the file now.
        t->flush();
    }
    flightEvent(event, "resilience", value);
    flightDump("quarantine");
}

ResilienceConfig
resilienceFromCli(const CommandLine &cli)
{
    ResilienceConfig rc;
    rc.checkpoint_path = cli.getString("checkpoint", "");
    rc.checkpoint_every =
        static_cast<uint32_t>(cli.getUnsigned("checkpoint-every", 0));
    rc.resume = cli.getFlag("resume");
    rc.frame_deadline_ms = cli.getDouble("deadline-ms", 0.0);
    rc.wall_budget_ms = cli.getDouble("budget-ms", 0.0);
    rc.audit = parseAuditLevel(cli.getString("audit", "cheap").c_str());
    rc.die_after_checkpoints =
        static_cast<uint32_t>(cli.getUnsigned("die-after-checkpoint", 0));
    rc.restart_limit =
        static_cast<uint32_t>(cli.getUnsigned("restart-limit", 0));
    if (rc.frame_deadline_ms < 0.0)
        throw Exception(ErrorCode::BadArgument,
                        "--deadline-ms: must be non-negative");
    if (rc.wall_budget_ms < 0.0)
        throw Exception(ErrorCode::BadArgument,
                        "--budget-ms: must be non-negative");
    if (rc.resume && rc.checkpoint_path.empty())
        throw Exception(ErrorCode::BadArgument,
                        "--resume: requires --checkpoint=PATH");
    if ((rc.checkpoint_every > 0 || rc.die_after_checkpoints > 0) &&
        rc.checkpoint_path.empty())
        throw Exception(ErrorCode::BadArgument,
                        "--checkpoint-every: requires --checkpoint=PATH");
    return rc;
}

namespace {

// Lock-free atomic rather than volatile sig_atomic_t: the handler may
// fire on any thread while sweep workers poll the flag concurrently, so
// the flag must be both async-signal-safe (lock-free atomic store) and
// a proper synchronisation point for the data-race checker. C++ only
// guarantees signal handler use of std::atomic when it is lock-free;
// int is on every platform we target.
std::atomic<int> g_cancel_requested{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "cancellation flag must be async-signal-safe");

void
cancelHandler(int)
{
    // Async-signal-safe: only flip the flag; every run loop (on any
    // worker thread) polls it at frame boundaries and writes its final
    // checkpoint from normal context.
    g_cancel_requested.store(1, std::memory_order_relaxed);
}

} // namespace

void
installCancellationHandlers()
{
    std::signal(SIGINT, cancelHandler);
    std::signal(SIGTERM, cancelHandler);
}

bool
cancellationRequested()
{
    return g_cancel_requested.load(std::memory_order_relaxed) != 0;
}

void
requestCancellation()
{
    g_cancel_requested.store(1, std::memory_order_relaxed);
}

void
clearCancellation()
{
    g_cancel_requested.store(0, std::memory_order_relaxed);
}

} // namespace mltc
