/**
 * @file
 * The tentpole parallelism property: a sweep of independent simulation
 * legs run through SweepExecutor produces *byte-identical* observable
 * output no matter the worker count. For filters × fault-injection
 * on/off × jobs ∈ {1, 2, 8} this asserts equality of
 *
 *  - every per-frame counter of every leg (FrameRow-level equality),
 *  - the sweep CSV assembled from per-leg results in leg order,
 *  - the merged per-leg metrics JSONL stream,
 *  - the final per-leg checkpoint snapshots (.snap bytes), and
 *  - the sweep manifest CSV.
 *
 * Extends the PR 2 resume-equivalence pattern: legs are complete
 * runner passes over their own tiny Workload, exactly how the bench
 * drivers and cache_explorer use the executor.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/observability.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/parallel_runner.hpp"
#include "util/csv.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

Workload
tiny()
{
    VillageParams p;
    p.houses = 4;
    p.trees = 2;
    p.extent = 80.0f;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    return buildVillage(p);
}

DriverConfig
driver(FilterMode filter, int frames)
{
    DriverConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.filter = filter;
    cfg.frames = frames;
    return cfg;
}

HostPathConfig
faultyHost()
{
    HostPathConfig host;
    host.fault_injection = true;
    host.faults.seed = 99;
    host.faults.drop_rate = 0.12;
    host.faults.corrupt_rate = 0.05;
    host.faults.spike_rate = 0.05;
    host.faults.burst_period = 150;
    host.faults.burst_length = 15;
    return host;
}

/** One leg of the sweep grid. */
struct LegSpec
{
    std::string name;
    FilterMode filter;
    bool faults;
};

std::vector<LegSpec>
grid()
{
    return {
        {"bilinear/clean", FilterMode::Bilinear, false},
        {"bilinear/faults", FilterMode::Bilinear, true},
        {"trilinear/clean", FilterMode::Trilinear, false},
        {"trilinear/faults", FilterMode::Trilinear, true},
    };
}

// PID-suffixed: ctest runs cases as parallel processes.
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name + "." + std::to_string(getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Everything observable one sweep run produced. */
struct SweepArtifacts
{
    std::vector<std::vector<FrameRow>> rows; ///< per leg
    std::string csv;                         ///< assembled sweep CSV
    std::string metrics;                     ///< merged per-leg JSONL
    std::vector<std::string> snaps;          ///< per-leg snapshot bytes
    std::string manifest_csv;                ///< sweep manifest bytes
};

/**
 * Run the whole grid at the given worker count the same way the bench
 * drivers do: per-leg Workload/runner/sims/metrics/checkpoint, results
 * into leg-indexed slots, files emitted in leg order after the run.
 */
SweepArtifacts
runSweep(unsigned jobs, int frames)
{
    const std::vector<LegSpec> legs = grid();
    const std::string base =
        tempPath("par_eq_j" + std::to_string(jobs));

    SweepArtifacts art;
    art.rows.resize(legs.size());

    SweepExecutor sweep(jobs);
    for (size_t i = 0; i < legs.size(); ++i) {
        const LegSpec &spec = legs[i];
        sweep.addLeg(spec.name, [&, i, spec](LegContext &) {
            Workload wl = tiny();
            MultiConfigRunner runner(wl, driver(spec.filter, frames));
            const HostPathConfig host =
                spec.faults ? faultyHost() : HostPathConfig{};
            CacheSimConfig pull = CacheSimConfig::pull(128 << 10);
            pull.host = host;
            runner.addSim(pull, "pull");
            CacheSimConfig two =
                CacheSimConfig::twoLevel(128 << 10, 2ull << 20);
            two.tlb_entries = 8;
            two.host = host;
            runner.addSim(two, "l2-2mb");

            ObsConfig oc;
            oc.metrics_path = base + ".leg" + std::to_string(i) + ".jsonl";
            Observability obs(oc, /*install_process_hooks=*/false);
            runner.setObservability(&obs);

            ResilienceConfig rc;
            rc.checkpoint_path =
                base + ".leg" + std::to_string(i) + ".snap";
            RunManifest m = runner.runSupervised(rc);
            EXPECT_EQ(m.outcome, RunOutcome::Completed) << spec.name;
            obs.close();
            art.rows[i] = runner.rows();
        });
    }
    SweepManifest manifest = sweep.run();
    EXPECT_TRUE(manifest.allCompleted()) << "jobs=" << jobs;
    manifest.writeCsv(base + ".manifest.csv");

    // Emit the sweep CSV from per-leg results, strictly in leg order.
    {
        CsvWriter csv(base + ".csv",
                      {"leg", "frame", "sim", "accesses", "l1_misses",
                       "host_bytes", "host_retries", "degraded"});
        for (size_t i = 0; i < legs.size(); ++i)
            for (const FrameRow &row : art.rows[i])
                for (size_t s = 0; s < row.sims.size(); ++s) {
                    const CacheFrameStats &st = row.sims[s];
                    csv.rowStrings(
                        {legs[i].name, std::to_string(row.frame),
                         std::to_string(s), std::to_string(st.accesses),
                         std::to_string(st.l1_misses),
                         std::to_string(st.host_bytes),
                         std::to_string(st.host_retries),
                         std::to_string(st.degraded_accesses)});
                }
        csv.close();
    }
    // Merge per-leg metrics JSONL in leg order, exactly like
    // cache_explorer's --jobs path does.
    for (size_t i = 0; i < legs.size(); ++i)
        art.metrics += slurp(base + ".leg" + std::to_string(i) + ".jsonl");
    for (size_t i = 0; i < legs.size(); ++i)
        art.snaps.push_back(
            slurp(base + ".leg" + std::to_string(i) + ".snap"));
    art.csv = slurp(base + ".csv");
    art.manifest_csv = slurp(base + ".manifest.csv");

    for (size_t i = 0; i < legs.size(); ++i) {
        std::remove((base + ".leg" + std::to_string(i) + ".jsonl").c_str());
        std::remove((base + ".leg" + std::to_string(i) + ".snap").c_str());
        std::remove(
            (base + ".leg" + std::to_string(i) + ".snap.manifest").c_str());
    }
    std::remove((base + ".csv").c_str());
    std::remove((base + ".manifest.csv").c_str());
    return art;
}

void
expectRowsEqual(const std::vector<FrameRow> &a,
                const std::vector<FrameRow> &b, const std::string &ctx)
{
    ASSERT_EQ(a.size(), b.size()) << ctx;
    for (size_t i = 0; i < a.size(); ++i) {
        const FrameRow &x = a[i];
        const FrameRow &y = b[i];
        const std::string at = ctx + " row " + std::to_string(i);
        EXPECT_EQ(x.frame, y.frame) << at;
        EXPECT_EQ(x.raster.texel_accesses, y.raster.texel_accesses) << at;
        EXPECT_EQ(x.raster.pixels_textured, y.raster.pixels_textured) << at;
        ASSERT_EQ(x.sims.size(), y.sims.size()) << at;
        for (size_t s = 0; s < x.sims.size(); ++s) {
            const CacheFrameStats &p = x.sims[s];
            const CacheFrameStats &q = y.sims[s];
            const std::string sim = at + " sim " + std::to_string(s);
            EXPECT_EQ(p.accesses, q.accesses) << sim;
            EXPECT_EQ(p.l1_misses, q.l1_misses) << sim;
            EXPECT_EQ(p.l2_full_hits, q.l2_full_hits) << sim;
            EXPECT_EQ(p.l2_partial_hits, q.l2_partial_hits) << sim;
            EXPECT_EQ(p.l2_full_misses, q.l2_full_misses) << sim;
            EXPECT_EQ(p.host_bytes, q.host_bytes) << sim;
            EXPECT_EQ(p.l2_read_bytes, q.l2_read_bytes) << sim;
            EXPECT_EQ(p.tlb_probes, q.tlb_probes) << sim;
            EXPECT_EQ(p.tlb_hits, q.tlb_hits) << sim;
            EXPECT_EQ(p.host_retries, q.host_retries) << sim;
            EXPECT_EQ(p.host_failures, q.host_failures) << sim;
            EXPECT_EQ(p.degraded_accesses, q.degraded_accesses) << sim;
        }
    }
}

TEST(ParallelEquivalence, ThreadCountInvariantBytes)
{
    const int frames = 3;
    const SweepArtifacts serial = runSweep(1, frames);
    ASSERT_EQ(serial.rows.size(), grid().size());
    ASSERT_FALSE(serial.csv.empty());
    ASSERT_FALSE(serial.metrics.empty());

    for (unsigned jobs : {2u, 8u}) {
        const SweepArtifacts par = runSweep(jobs, frames);
        const std::string ctx = "jobs=" + std::to_string(jobs);
        ASSERT_EQ(par.rows.size(), serial.rows.size()) << ctx;
        for (size_t i = 0; i < serial.rows.size(); ++i)
            expectRowsEqual(serial.rows[i], par.rows[i],
                            ctx + " leg " + grid()[i].name);
        EXPECT_EQ(par.csv, serial.csv) << ctx;
        EXPECT_EQ(par.metrics, serial.metrics) << ctx;
        ASSERT_EQ(par.snaps.size(), serial.snaps.size()) << ctx;
        for (size_t i = 0; i < serial.snaps.size(); ++i) {
            EXPECT_FALSE(serial.snaps[i].empty())
                << ctx << " leg " << i << " snapshot missing";
            EXPECT_EQ(par.snaps[i], serial.snaps[i])
                << ctx << " leg " << i << " snapshot bytes differ";
        }
        EXPECT_EQ(par.manifest_csv, serial.manifest_csv) << ctx;
    }
}

TEST(ParallelEquivalence, RepeatedParallelRunsAreStable)
{
    // Two identical --jobs 8 sweeps must agree with each other too
    // (guards against any hidden cross-leg state, e.g. a shared RNG).
    const SweepArtifacts a = runSweep(8, 2);
    const SweepArtifacts b = runSweep(8, 2);
    EXPECT_EQ(a.csv, b.csv);
    EXPECT_EQ(a.metrics, b.metrics);
    ASSERT_EQ(a.snaps.size(), b.snaps.size());
    for (size_t i = 0; i < a.snaps.size(); ++i)
        EXPECT_EQ(a.snaps[i], b.snaps[i]) << "leg " << i;
}

// ---------------------------------------------------------------------------
// Lockstep groups: K runners over one Workload, each frame rendered once,
// must leave exactly the bytes K solo runSupervised() runs leave.

/** One leg of a lockstep group (all legs share the driver config). */
struct GroupLeg
{
    std::string name;
    bool faults;
    uint64_t l2_mb;
};

std::vector<GroupLeg>
groupLegs()
{
    return {{"a", false, 1}, {"b", true, 2}, {"c", false, 4}};
}

constexpr FilterMode kGroupFilter = FilterMode::Trilinear;

/** A leg's runner and per-leg metrics stream over @p wl. */
struct LegRig
{
    std::unique_ptr<MultiConfigRunner> runner;
    std::unique_ptr<Observability> obs;
};

LegRig
makeRig(Workload &wl, const GroupLeg &spec, int frames,
        const std::string &metrics_path)
{
    LegRig rig;
    rig.runner = std::make_unique<MultiConfigRunner>(
        wl, driver(kGroupFilter, frames));
    const HostPathConfig host =
        spec.faults ? faultyHost() : HostPathConfig{};
    CacheSimConfig pull = CacheSimConfig::pull(128 << 10);
    pull.host = host;
    rig.runner->addSim(pull, "pull");
    CacheSimConfig two =
        CacheSimConfig::twoLevel(128 << 10, spec.l2_mb << 20);
    two.tlb_entries = 8;
    two.host = host;
    rig.runner->addSim(two, "l2");
    ObsConfig oc;
    oc.metrics_path = metrics_path;
    rig.obs = std::make_unique<Observability>(
        oc, /*install_process_hooks=*/false);
    rig.runner->setObservability(rig.obs.get());
    return rig;
}

/** Everything one leg of a run left behind. */
struct LegOutput
{
    bool failed = false;
    RunManifest manifest;
    std::vector<FrameRow> rows;
    std::string snap;          ///< final checkpoint bytes
    std::string snap_manifest; ///< `<checkpoint>.manifest` bytes
    std::string metrics;       ///< per-leg metrics JSONL bytes
};

/** Per-leg knobs of one run: supervision and a row callback. */
struct LegPlan
{
    ResilienceConfig rc;
    /** Called per harvested row with the leg's runner (may be empty). */
    std::function<void(MultiConfigRunner &, const FrameRow &)> on_row;
};

std::string
legPath(const std::string &base, size_t i, const char *ext)
{
    return base + ".leg" + std::to_string(i) + ext;
}

std::string
slurpIfPresent(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

void
removeLegFiles(const std::string &base, size_t legs)
{
    for (size_t i = 0; i < legs; ++i)
        for (const char *ext : {".snap", ".snap.prev", ".snap.manifest",
                                ".jsonl"})
            std::remove(legPath(base, i, ext).c_str());
}

/**
 * Run every leg of @p specs under @p plans, either each on its own
 * Workload via runSupervised() or all on one Workload via
 * runLockstep(). Checkpoints and metrics go to `<base>.legN.*`; a
 * plan's rc.checkpoint_path is filled in here.
 */
std::vector<LegOutput>
runLegs(bool grouped, const std::vector<GroupLeg> &specs,
        std::vector<LegPlan> plans, int frames, const std::string &base)
{
    std::vector<LegOutput> out(specs.size());
    std::vector<Workload> worlds(grouped ? 1 : specs.size());
    for (Workload &w : worlds)
        w = tiny();
    std::vector<LegRig> rigs;
    std::vector<LockstepLeg> slots(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        rigs.push_back(makeRig(worlds[grouped ? 0 : i], specs[i], frames,
                               legPath(base, i, ".jsonl")));
        MultiConfigRunner &runner = *rigs.back().runner;
        plans[i].rc.checkpoint_path = legPath(base, i, ".snap");
        slots[i].runner = &runner;
        slots[i].rc = plans[i].rc;
        if (plans[i].on_row)
            slots[i].cb = [&runner, fn = plans[i].on_row](
                              const FrameRow &row) { fn(runner, row); };
    }

    clearCancellation();
    if (grouped) {
        runLockstep(slots);
    } else {
        for (LockstepLeg &slot : slots) {
            clearCancellation();
            try {
                slot.manifest = slot.runner->runSupervised(slot.rc, slot.cb);
            } catch (...) {
                slot.error = std::current_exception();
            }
        }
    }
    clearCancellation();

    for (size_t i = 0; i < specs.size(); ++i) {
        rigs[i].obs->close();
        out[i].failed = slots[i].error != nullptr;
        out[i].manifest = slots[i].manifest;
        out[i].rows = rigs[i].runner->rows();
        out[i].snap = slurpIfPresent(legPath(base, i, ".snap"));
        out[i].snap_manifest =
            slurpIfPresent(legPath(base, i, ".snap.manifest"));
        out[i].metrics = slurpIfPresent(legPath(base, i, ".jsonl"));
    }
    return out;
}

void
expectLegsEqual(const std::vector<LegOutput> &solo,
                const std::vector<LegOutput> &group, const std::string &ctx)
{
    ASSERT_EQ(solo.size(), group.size()) << ctx;
    for (size_t i = 0; i < solo.size(); ++i) {
        const std::string at = ctx + " leg " + std::to_string(i);
        EXPECT_EQ(solo[i].failed, group[i].failed) << at;
        EXPECT_EQ(solo[i].manifest.outcome, group[i].manifest.outcome) << at;
        EXPECT_EQ(solo[i].manifest.next_frame, group[i].manifest.next_frame)
            << at;
        EXPECT_EQ(solo[i].manifest.frames_completed,
                  group[i].manifest.frames_completed)
            << at;
        expectRowsEqual(solo[i].rows, group[i].rows, at);
        EXPECT_EQ(solo[i].snap, group[i].snap) << at << " snapshot bytes";
        EXPECT_EQ(solo[i].snap_manifest, group[i].snap_manifest)
            << at << " manifest bytes";
        EXPECT_EQ(solo[i].metrics, group[i].metrics) << at << " metrics";
    }
}

/** Plans with periodic checkpoints and nothing else. */
std::vector<LegPlan>
plainPlans(size_t legs)
{
    std::vector<LegPlan> plans(legs);
    for (LegPlan &p : plans)
        p.rc.checkpoint_every = 2;
    return plans;
}

TEST(LockstepEquivalence, GroupMatchesSoloRuns)
{
    const std::string solo_base = tempPath("lock_solo");
    const std::string group_base = tempPath("lock_group");
    const auto specs = groupLegs();
    const auto solo = runLegs(false, specs, plainPlans(3), 5, solo_base);
    const auto group = runLegs(true, specs, plainPlans(3), 5, group_base);
    for (const LegOutput &leg : solo) {
        EXPECT_FALSE(leg.failed);
        EXPECT_EQ(leg.manifest.outcome, RunOutcome::Completed);
        EXPECT_EQ(leg.rows.size(), 5u);
        EXPECT_FALSE(leg.snap.empty());
        EXPECT_FALSE(leg.metrics.empty());
    }
    expectLegsEqual(solo, group, "fresh");
    removeLegFiles(solo_base, 3);
    removeLegFiles(group_base, 3);
}

TEST(LockstepEquivalence, MixedStartFramesShareOneRender)
{
    // Leg "b" checkpoints at frame 2 and is resumed; "a" and "c" start
    // fresh. The group renders from frame 0 and "b" joins at frame 2.
    const auto specs = groupLegs();
    const int frames = 6;
    const std::string seed_base = tempPath("lock_seed");
    {
        std::vector<LegPlan> plans = plainPlans(3);
        plans[1].on_row = [](MultiConfigRunner &, const FrameRow &row) {
            if (row.frame == 1)
                requestCancellation();
        };
        const auto seeded =
            runLegs(false, {specs[1]}, {plans[1]}, frames, seed_base);
        ASSERT_EQ(seeded[0].manifest.outcome, RunOutcome::Cancelled);
        ASSERT_EQ(seeded[0].manifest.next_frame, 2);
    }
    const std::string snap = slurpIfPresent(legPath(seed_base, 0, ".snap"));
    const std::string metrics =
        slurpIfPresent(legPath(seed_base, 0, ".jsonl"));
    ASSERT_FALSE(snap.empty());

    std::vector<std::vector<LegOutput>> runs;
    for (bool grouped : {false, true}) {
        const std::string base =
            tempPath(grouped ? "lock_mixed_g" : "lock_mixed_s");
        spit(legPath(base, 1, ".snap"), snap);
        std::vector<LegPlan> plans = plainPlans(3);
        plans[1].rc.resume = true;
        runs.push_back(runLegs(grouped, specs, plans, frames, base));
        removeLegFiles(base, 3);
    }
    const auto &solo = runs[0];
    EXPECT_EQ(solo[1].manifest.outcome, RunOutcome::Completed);
    EXPECT_EQ(solo[1].rows.size(), static_cast<size_t>(frames));
    EXPECT_EQ(solo[1].rows.front().frame, 0);
    expectLegsEqual(solo, runs[1], "mixed start");

    // The resumed leg also equals a straight run of it.
    const std::string straight_base = tempPath("lock_straight");
    const auto straight =
        runLegs(false, {specs[1]}, {plainPlans(1)[0]}, frames, straight_base);
    EXPECT_EQ(straight[0].snap, runs[1][1].snap);
    EXPECT_EQ(straight[0].metrics, metrics + runs[1][1].metrics);
    removeLegFiles(straight_base, 1);
    removeLegFiles(seed_base, 1);
}

} // namespace

/** Test-only friend: reaches into a simulator to make it throw. */
class AuditTestPeer
{
  public:
    /** Empty the L2 page table: the next L2 access throws OutOfRange. */
    static void
    breakL2(CacheSim &sim)
    {
        sim.l2_->table_.clear();
    }
};

namespace {

TEST(LockstepEquivalence, ThrowingSimIsQuarantinedAlone)
{
    // Leg "b"'s L2 simulator throws mid-frame 2: the guard quarantines
    // it, leg "b" finishes on its pull sim, and every other leg's bytes
    // are untouched.
    const auto specs = groupLegs();
    std::vector<std::vector<LegOutput>> runs;
    for (bool grouped : {false, true}) {
        std::vector<LegPlan> plans = plainPlans(3);
        for (LegPlan &p : plans)
            p.rc.audit = AuditLevel::Off; // the access itself must throw
        plans[1].on_row = [](MultiConfigRunner &r, const FrameRow &row) {
            if (row.frame == 1)
                AuditTestPeer::breakL2(*r.sims()[1]);
        };
        const std::string base =
            tempPath(grouped ? "lock_quar_g" : "lock_quar_s");
        runs.push_back(runLegs(grouped, specs, plans, 4, base));
        removeLegFiles(base, 3);
    }
    const LegOutput &hurt = runs[1][1];
    EXPECT_EQ(hurt.manifest.outcome, RunOutcome::Completed);
    ASSERT_EQ(hurt.manifest.sims.size(), 2u);
    EXPECT_FALSE(hurt.manifest.sims[0].quarantined);
    EXPECT_TRUE(hurt.manifest.sims[1].quarantined);
    EXPECT_EQ(hurt.manifest.sims[1].quarantined_at_frame, 2);
    EXPECT_EQ(hurt.manifest.sims[1].error.code, ErrorCode::OutOfRange);
    for (size_t i : {0u, 2u})
        EXPECT_EQ(runs[1][i].manifest.quarantinedCount(), 0u) << i;
    expectLegsEqual(runs[0], runs[1], "quarantine");

    // The healthy legs also equal a group that never saw the fault.
    const std::string clean_base = tempPath("lock_quar_clean");
    std::vector<LegPlan> clean = plainPlans(3);
    for (LegPlan &p : clean)
        p.rc.audit = AuditLevel::Off;
    const auto reference = runLegs(true, specs, clean, 4, clean_base);
    removeLegFiles(clean_base, 3);
    for (size_t i : {0u, 2u}) {
        EXPECT_EQ(reference[i].snap, runs[1][i].snap) << i;
        EXPECT_EQ(reference[i].metrics, runs[1][i].metrics) << i;
    }
}

TEST(LockstepEquivalence, CorruptCheckpointFailsOnlyItsLeg)
{
    const auto specs = groupLegs();
    std::vector<std::vector<LegOutput>> runs;
    for (bool grouped : {false, true}) {
        const std::string base =
            tempPath(grouped ? "lock_bad_g" : "lock_bad_s");
        spit(legPath(base, 0, ".snap"), "MLTCSNP1 but not a snapshot");
        std::vector<LegPlan> plans = plainPlans(3);
        plans[0].rc.resume = true;
        runs.push_back(runLegs(grouped, specs, plans, 4, base));
        removeLegFiles(base, 3);
    }
    EXPECT_TRUE(runs[1][0].failed);
    EXPECT_FALSE(runs[1][1].failed);
    EXPECT_FALSE(runs[1][2].failed);
    EXPECT_EQ(runs[1][2].manifest.outcome, RunOutcome::Completed);
    expectLegsEqual(runs[0], runs[1], "corrupt checkpoint");
}

TEST(LockstepEquivalence, CancellationStopsEveryLegAtOneBoundary)
{
    // Solo: each leg raises the cancellation flag itself after frame 1.
    // Grouped: only leg "a" does — every leg must still stop at the
    // frame-2 boundary and checkpoint there, byte-identically.
    const auto specs = groupLegs();
    const auto cancelAfter1 = [](MultiConfigRunner &, const FrameRow &row) {
        if (row.frame == 1)
            requestCancellation();
    };
    std::vector<LegPlan> solo_plans = plainPlans(3);
    for (LegPlan &p : solo_plans) {
        p.rc.checkpoint_every = 0;
        p.on_row = cancelAfter1;
    }
    std::vector<LegPlan> group_plans = plainPlans(3);
    for (LegPlan &p : group_plans)
        p.rc.checkpoint_every = 0;
    group_plans[0].on_row = cancelAfter1;

    const std::string solo_base = tempPath("lock_int_s");
    const std::string group_base = tempPath("lock_int_g");
    const auto solo = runLegs(false, specs, solo_plans, 6, solo_base);
    const auto group = runLegs(true, specs, group_plans, 6, group_base);
    removeLegFiles(solo_base, 3);
    removeLegFiles(group_base, 3);
    for (const LegOutput &leg : group) {
        EXPECT_EQ(leg.manifest.outcome, RunOutcome::Cancelled);
        EXPECT_EQ(leg.manifest.next_frame, 2);
        EXPECT_EQ(leg.rows.size(), 2u);
        EXPECT_FALSE(leg.snap.empty());
    }
    expectLegsEqual(solo, group, "cancelled");
}

TEST(LockstepEquivalence, GroupingIsInvisibleToTheSweep)
{
    // The same lockstep sweep through SweepExecutor at jobs 1 (one
    // group of 3), 2 (2 + 1), 3 and 8 (groups of one): identical rows,
    // snapshots, metrics and manifests — and a leg with a corrupt
    // checkpoint fails alone in every grouping.
    const auto specs = groupLegs();
    const int frames = 4;
    struct Sweep
    {
        std::vector<std::vector<FrameRow>> rows;
        std::vector<std::string> snaps, metrics;
        std::string manifest;
    };
    const auto runSweepAt = [&](unsigned jobs) {
        // One base for every jobs count: the failed leg's error names
        // its checkpoint path, and the manifests are compared bytewise.
        const std::string base = tempPath("lock_exec");
        spit(legPath(base, 2, ".snap"), "garbage");
        Sweep out;
        out.rows.resize(specs.size());
        std::vector<LegRig> rigs(specs.size());
        SweepExecutor sweep(jobs);
        sweep.setGroupWorkload(tiny);
        for (size_t i = 0; i < specs.size(); ++i) {
            LockstepLegBody body;
            body.setup = [&, i](LegContext &,
                                const std::shared_ptr<Workload> &wl) {
                rigs[i] = makeRig(*wl, specs[i], frames,
                                  legPath(base, i, ".jsonl"));
                LockstepLeg slot;
                slot.runner = rigs[i].runner.get();
                slot.rc.checkpoint_path = legPath(base, i, ".snap");
                slot.rc.checkpoint_every = 2;
                slot.rc.resume = i == 2;
                return slot;
            };
            body.finish = [&, i](LegContext &, const RunManifest &m) {
                EXPECT_EQ(m.outcome, RunOutcome::Completed);
                rigs[i].obs->close();
                out.rows[i] = rigs[i].runner->rows();
            };
            sweep.addLockstepLeg(specs[i].name, std::move(body));
        }
        const SweepManifest manifest = sweep.run();
        EXPECT_EQ(manifest.legs[0].outcome, LegOutcome::Completed);
        EXPECT_EQ(manifest.legs[1].outcome, LegOutcome::Completed);
        EXPECT_EQ(manifest.legs[2].outcome, LegOutcome::Failed);
        manifest.writeCsv(base + ".manifest.csv");
        out.manifest = slurp(base + ".manifest.csv");
        std::remove((base + ".manifest.csv").c_str());
        rigs.clear(); // closes the failed leg's metrics stream
        for (size_t i = 0; i < specs.size(); ++i) {
            out.snaps.push_back(slurpIfPresent(legPath(base, i, ".snap")));
            out.metrics.push_back(
                slurpIfPresent(legPath(base, i, ".jsonl")));
        }
        removeLegFiles(base, specs.size());
        return out;
    };

    const Sweep serial = runSweepAt(1);
    EXPECT_FALSE(serial.snaps[0].empty());
    for (unsigned jobs : {2u, 3u, 8u}) {
        const Sweep par = runSweepAt(jobs);
        const std::string ctx = "jobs=" + std::to_string(jobs);
        for (size_t i = 0; i < specs.size(); ++i) {
            expectRowsEqual(serial.rows[i], par.rows[i],
                            ctx + " leg " + std::to_string(i));
            EXPECT_EQ(serial.snaps[i], par.snaps[i]) << ctx << " leg " << i;
            EXPECT_EQ(serial.metrics[i], par.metrics[i])
                << ctx << " leg " << i;
        }
        EXPECT_EQ(serial.manifest, par.manifest) << ctx;
    }
}

} // namespace
} // namespace mltc
