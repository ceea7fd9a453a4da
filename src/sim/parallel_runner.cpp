#include "sim/parallel_runner.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>

#include "obs/profiler.hpp"
#include "obs/telemetry_server.hpp"
#include "sim/resilience.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace mltc {

const char *
legOutcomeName(LegOutcome outcome)
{
    switch (outcome) {
    case LegOutcome::Completed:
        return "completed";
    case LegOutcome::Failed:
        return "failed";
    case LegOutcome::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

bool
SweepManifest::allCompleted() const
{
    for (const LegResult &leg : legs)
        if (leg.outcome != LegOutcome::Completed)
            return false;
    return !legs.empty();
}

void
SweepManifest::writeCsv(const std::string &path) const
{
    CsvWriter csv(path, {"leg", "name", "outcome", "error"});
    for (size_t i = 0; i < legs.size(); ++i)
        csv.rowStrings({std::to_string(i), legs[i].name,
                        legOutcomeName(legs[i].outcome), legs[i].error});
    csv.close();
}

void
LegContext::printf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n > 0) {
        size_t old = out_.size();
        out_.resize(old + static_cast<size_t>(n) + 1);
        std::vsnprintf(out_.data() + old, static_cast<size_t>(n) + 1, fmt,
                       args);
        out_.resize(old + static_cast<size_t>(n));
    }
    va_end(args);
}

SweepExecutor::SweepExecutor(unsigned jobs)
    : jobs_(jobs == 0 ? ThreadPool::defaultJobs() : jobs)
{
}

void
SweepExecutor::addLeg(std::string name,
                      std::function<void(LegContext &)> body)
{
    legs_.push_back({std::move(name), std::move(body), {}});
}

void
SweepExecutor::addLockstepLeg(std::string name, LockstepLegBody body)
{
    legs_.push_back({std::move(name), {}, std::move(body)});
}

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Mark @p result Failed with the text of @p error. */
void
failLeg(LegResult &result, const std::exception_ptr &error)
{
    result.outcome = LegOutcome::Failed;
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        result.error = e.what();
    } catch (...) {
        result.error = "unknown exception";
    }
}

void
runOneLeg(const std::function<void(LegContext &)> &body, LegContext &ctx,
          LegResult &result, const char *root)
{
    result.name = ctx.name();
    if (cancellationRequested()) {
        result.outcome = LegOutcome::Cancelled;
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    try {
        // Every sample taken while this worker runs the leg carries a
        // "leg:<name>" root frame; hardware counters (when available)
        // bracket the whole leg body.
        ScopedProfileStage leg_prof(root, /*with_counters=*/true);
        body(ctx);
        result.outcome = LegOutcome::Completed;
    } catch (...) {
        failLeg(result, std::current_exception());
    }
    result.wall_ms = msSince(t0);
}

void
flushLeg(const LegContext &ctx)
{
    const std::string &text = ctx.buffered();
    if (!text.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fflush(stdout);
    }
}

} // namespace

void
SweepExecutor::publishLegStatus(
    const std::vector<const char *> &status) const
{
    if (!telemetry_)
        return;
    JsonWriter w;
    w.beginObject();
    w.kv("mode", "sweep");
    w.kv("jobs", static_cast<uint64_t>(jobs_));
    w.key("legs");
    w.beginArray();
    for (size_t i = 0; i < legs_.size(); ++i) {
        w.beginObject();
        w.kv("index", static_cast<uint64_t>(i));
        w.kv("name", legs_[i].name);
        w.kv("status", status[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    telemetry_->publishRunz(w.str());
}

void
SweepExecutor::runGroup(size_t first, size_t last,
                        std::vector<LegContext> &ctxs,
                        SweepManifest &manifest,
                        const std::vector<const char *> &roots) const
{
    if (legs_[first].body) {
        runOneLeg(legs_[first].body, ctxs[first], manifest.legs[first],
                  roots[first]);
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    // A group of one is an independent leg: its annotation roots the
    // whole body and brackets the hardware counters. In a larger group
    // the render is shared, so only each leg's own steps are re-rooted
    // under its annotation.
    const bool solo = last - first == 1;
    ScopedProfileStage solo_root(solo ? roots[first] : nullptr,
                                 /*with_counters=*/true);
    const auto rootOf = [&](size_t i) { return solo ? nullptr : roots[i]; };

    std::shared_ptr<Workload> workload;
    std::vector<LockstepLeg> members;
    std::vector<size_t> owners; ///< leg index of each member
    members.reserve(last - first);
    for (size_t i = first; i < last; ++i) {
        LegResult &result = manifest.legs[i];
        result.name = legs_[i].name;
        if (cancellationRequested()) {
            result.outcome = LegOutcome::Cancelled;
            continue;
        }
        try {
            // Built once for the group, outside any one leg's root.
            if (!workload)
                workload = std::make_shared<Workload>(build_workload_());
            ScopedProfileRoot root(rootOf(i));
            members.push_back(legs_[i].lockstep.setup(ctxs[i], workload));
            members.back().profile_root = rootOf(i);
            owners.push_back(i);
        } catch (...) {
            failLeg(result, std::current_exception());
        }
    }

    try {
        runLockstep(members);
    } catch (...) {
        // The shared render itself failed: every leg still in it fails.
        for (LockstepLeg &m : members)
            if (!m.error)
                m.error = std::current_exception();
    }

    for (size_t k = 0; k < members.size(); ++k) {
        const size_t i = owners[k];
        LegResult &result = manifest.legs[i];
        if (members[k].error) {
            failLeg(result, members[k].error);
            continue;
        }
        ScopedProfileRoot root(rootOf(i));
        try {
            legs_[i].lockstep.finish(ctxs[i], members[k].manifest);
            result.outcome = LegOutcome::Completed;
        } catch (...) {
            failLeg(result, std::current_exception());
        }
    }
    const double wall_ms = msSince(t0);
    for (size_t i = first; i < last; ++i)
        manifest.legs[i].wall_ms = wall_ms;
}

SweepManifest
SweepExecutor::run()
{
    const size_t n = legs_.size();
    SweepManifest manifest;
    manifest.legs.resize(n);

    std::vector<LegContext> ctxs;
    ctxs.reserve(n);
    // Intern the leg annotations up front, in registration order, so
    // the profile lists legs identically for any schedule.
    std::vector<const char *> roots;
    roots.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        ctxs.emplace_back(i, legs_[i].name);
        roots.push_back(profileInternAnnotation("leg:" + legs_[i].name));
    }

    // Groups of contiguous legs, one task each: lockstep legs split
    // into min(jobs, n) groups (sizes differ by at most one, larger
    // first); independent legs are groups of one.
    const bool lockstep = !legs_.empty() && !legs_.front().body;
    for (const Leg &leg : legs_)
        if (!leg.body != lockstep)
            throw Exception(ErrorCode::BadArgument,
                            "SweepExecutor: lockstep and independent legs "
                            "cannot share one executor");
    const size_t groups =
        lockstep ? std::min<size_t>(std::max(jobs_, 1u), n) : n;
    std::vector<size_t> bounds{0};
    for (size_t g = 0; g < groups; ++g)
        bounds.push_back(bounds.back() + n / groups +
                         (g < n % groups ? 1 : 0));

    std::mutex mutex;
    std::condition_variable cv;
    std::vector<char> done(n, 0);
    std::vector<const char *> status(n, "pending");
    publishLegStatus(status);

    // Status snapshots are taken under the same mutex the flags mutate
    // under, so /runz never shows a torn view.
    const auto run_group = [&](size_t g) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (size_t i = bounds[g]; i < bounds[g + 1]; ++i)
                status[i] = "running";
            publishLegStatus(status);
        }
        runGroup(bounds[g], bounds[g + 1], ctxs, manifest, roots);
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (size_t i = bounds[g]; i < bounds[g + 1]; ++i) {
                done[i] = 1;
                status[i] = legOutcomeName(manifest.legs[i].outcome);
            }
            publishLegStatus(status);
        }
        cv.notify_all();
    };

    if (jobs_ <= 1 || groups <= 1) {
        // Serial: every group inline in registration order, each leg's
        // output flushed as soon as its group finishes.
        for (size_t g = 0; g < groups; ++g) {
            run_group(g);
            for (size_t i = bounds[g]; i < bounds[g + 1]; ++i)
                flushLeg(ctxs[i]);
        }
        return manifest;
    }

    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<size_t>(jobs_, groups)));
        for (size_t g = 0; g < groups; ++g)
            pool.submit([&run_group, g]() { run_group(g); });
        // Stream buffers in registration order: leg i prints as soon as
        // it and all earlier legs finished, however the pool scheduled
        // them.
        for (size_t i = 0; i < n; ++i) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&done, i]() { return done[i] != 0; });
            lock.unlock();
            flushLeg(ctxs[i]);
        }
    } // drain + join
    return manifest;
}

unsigned
jobsFromCli(const CommandLine &cli)
{
    unsigned long jobs = cli.getUnsigned("jobs", 0);
    if (jobs > 1024)
        throw Exception(ErrorCode::BadArgument,
                        "--jobs: implausible worker count");
    if (jobs == 0)
        return ThreadPool::defaultJobs();
    return static_cast<unsigned>(jobs);
}

} // namespace mltc
