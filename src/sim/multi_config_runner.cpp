#include "sim/multi_config_runner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "raster/access_sink.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/serializer.hpp"

namespace mltc {

size_t
RunManifest::quarantinedCount() const
{
    size_t n = 0;
    for (const auto &s : sims)
        if (s.quarantined)
            ++n;
    return n;
}

namespace {

/**
 * The `frame` bracket around one rendered frame: a trace B/E pair plus
 * the profiler stage. It spans the gate and the per-frame callback, so
 * it is carried by hand rather than by a scoped guard; the destructor
 * closes a bracket left open by an exception.
 */
class FrameBracket
{
  public:
    FrameBracket() = default;
    FrameBracket(const FrameBracket &) = delete;
    FrameBracket &operator=(const FrameBracket &) = delete;
    ~FrameBracket() { close(); }

    void
    open()
    {
        if (ChromeTraceWriter *t = globalTracer()) {
            t->begin("frame", "frame");
            traced_ = true;
        }
        if (StageProfiler *p = stageProfiler())
            prof_ = p->enter("frame");
    }

    void
    close()
    {
        if (traced_) {
            if (ChromeTraceWriter *t = globalTracer())
                t->end();
            traced_ = false;
        }
        if (prof_ != nullptr) {
            StageProfiler::leave(prof_);
            prof_ = nullptr;
        }
    }

  private:
    bool traced_ = false;
    detail::ProfileSlot *prof_ = nullptr;
};

} // namespace

MultiConfigRunner::MultiConfigRunner(Workload &workload,
                                     const DriverConfig &config)
    : workload_(workload), config_(config)
{
}

MultiConfigRunner::~MultiConfigRunner() = default;

CacheSim &
MultiConfigRunner::addSim(const CacheSimConfig &config, std::string label)
{
    sims_.push_back(std::make_unique<CacheSim>(*workload_.textures, config,
                                               std::move(label)));
    return *sims_.back();
}

WorkingSetCollector &
MultiConfigRunner::addWorkingSets(std::vector<uint32_t> l2_tiles,
                                  std::vector<uint32_t> l1_tiles)
{
    working_sets_ = std::make_unique<WorkingSetCollector>(
        *workload_.textures, std::move(l2_tiles), std::move(l1_tiles));
    return *working_sets_;
}

PushArchitectureModel &
MultiConfigRunner::addPushModel()
{
    push_ = std::make_unique<PushArchitectureModel>(*workload_.textures);
    return *push_;
}

void
MultiConfigRunner::addExtraSink(TexelAccessSink *sink)
{
    extra_sinks_.push_back(sink);
}

void
MultiConfigRunner::harvestRow(int frame, const FrameStats &fs,
                              const RowCallback &cb)
{
    FrameRow row;
    row.frame = frame;
    row.raster = fs;
    row.sims.reserve(sims_.size());
    for (auto &sim : sims_)
        row.sims.push_back(sim->endFrame());
    if (working_sets_)
        row.working_sets = working_sets_->endFrame();
    if (push_)
        row.push_bytes = push_->endFrame();
    rows_.push_back(std::move(row));
    publishFrame(rows_.back());
    if (cb)
        cb(rows_.back());
}

void
MultiConfigRunner::publishFrame(const FrameRow &row)
{
    if (ChromeTraceWriter *t = globalTracer()) {
        // Hot-path self time accumulated by SelfTimer inside the access
        // path, surfaced as a stage aggregate (no timeline event).
        uint64_t access_ns = 0;
        for (auto &sim : sims_)
            access_ns += sim->takeAccessNs();
        t->recordAggregate("cachesim.access", access_ns / 1000);

        for (size_t i = 0; i < sims_.size(); ++i) {
            const CacheFrameStats &s = row.sims[i];
            const std::string &label = sims_[i]->label();
            const double sector_misses = static_cast<double>(
                s.l2_partial_hits + s.l2_full_misses);
            t->counter(
                "miss_rates/" + label,
                {{"l1", s.accesses ? static_cast<double>(s.l1_misses) /
                                         static_cast<double>(s.accesses)
                                   : 0.0},
                 {"l2_sector",
                  s.l1_misses ? sector_misses /
                                    static_cast<double>(s.l1_misses)
                              : 0.0},
                 {"tlb", s.tlb_probes
                             ? 1.0 - static_cast<double>(s.tlb_hits) /
                                         static_cast<double>(s.tlb_probes)
                             : 0.0}});
            t->counter("agp_bytes/" + label,
                       {{"host", static_cast<double>(s.host_bytes)},
                        {"l2_read", static_cast<double>(s.l2_read_bytes)}});
        }
    }

    if (!obs_ || !obs_->metrics().enabled())
        return;
    MetricsRegistry &m = obs_->metrics();
    // Batch the frame's registry updates under the scrape lock so a
    // concurrent /metrics render never sees a half-published frame.
    auto reg_guard = m.updateGuard();
    for (size_t i = 0; i < sims_.size(); ++i) {
        const CacheSim &sim = *sims_[i];
        const CacheFrameStats &tot = sim.totals();
        const CacheFrameStats &fr = row.sims[i];
        const MetricLabels ls{{"sim", sim.label()}};
        // Counters are cumulative (consumers diff adjacent rows);
        // everything is *derived* from simulator totals each frame.
        m.counter("accesses", ls).set(tot.accesses);
        m.counter("l1.miss", ls).set(tot.l1_misses);
        m.counter("l2.full_hit", ls).set(tot.l2_full_hits);
        m.counter("l2.partial_hit", ls).set(tot.l2_partial_hits);
        m.counter("l2.full_miss", ls).set(tot.l2_full_misses);
        m.counter("host.bytes", ls).set(tot.host_bytes);
        m.counter("l2.read_bytes", ls).set(tot.l2_read_bytes);
        m.counter("tlb.probe", ls).set(tot.tlb_probes);
        m.counter("tlb.hit", ls).set(tot.tlb_hits);
        m.counter("host.retry", ls).set(tot.host_retries);
        m.counter("host.failure", ls).set(tot.host_failures);
        m.counter("degraded.access", ls).set(tot.degraded_accesses);
        // Gauges carry this frame's instantaneous rates.
        m.gauge("l1.hit_rate", ls).set(fr.l1HitRate());
        m.gauge("l2.full_hit_rate", ls).set(fr.l2FullHitRate());
        m.gauge("tlb.hit_rate", ls).set(fr.tlbHitRate());
        if (sim.config().classify_misses) {
            auto cls = [&](const char *name, const char *cls_name,
                           uint64_t v) {
                MetricLabels l = ls;
                l.push_back({"class", cls_name});
                m.counter(name, l).set(v);
            };
            cls("l1.miss.class", "compulsory", tot.l1_compulsory);
            cls("l1.miss.class", "capacity", tot.l1_capacity);
            cls("l1.miss.class", "conflict", tot.l1_conflict);
            if (sim.l2Classifier()) {
                cls("l2.miss.class", "compulsory", tot.l2_compulsory);
                cls("l2.miss.class", "capacity", tot.l2_capacity);
                cls("l2.miss.class", "conflict", tot.l2_conflict);
            }
        }
        if (const L2TextureCache *l2 = sim.l2()) {
            const Histogram &vh = l2->victimStepsHistogram();
            m.gauge("l2.victim_steps.p50", ls).set(
                static_cast<double>(vh.percentile(0.50)));
            m.gauge("l2.victim_steps.p99", ls).set(
                static_cast<double>(vh.percentile(0.99)));
        }
        if (const HostFetchPath *hp = sim.hostPath()) {
            const Histogram &lh = hp->latencyHistogram();
            m.gauge("host.fetch_us.p50", ls).set(
                static_cast<double>(lh.percentile(0.50)));
            m.gauge("host.fetch_us.p99", ls).set(
                static_cast<double>(lh.percentile(0.99)));
        }
    }
    if (obs_->metricsSink())
        m.writeFrameSnapshot(*obs_->metricsSink(), row.frame);
}

void
MultiConfigRunner::run(const RowCallback &cb)
{
    rows_.clear();

    FanoutSink fanout;
    for (auto &sim : sims_)
        fanout.add(sim.get());
    if (working_sets_)
        fanout.add(working_sets_.get());
    if (push_)
        fanout.add(push_.get());
    for (auto *s : extra_sinks_)
        fanout.add(s);

    FrameBracket bracket;
    runAnimationRange(workload_, config_, &fanout, 0,
                      [&](int frame, const FrameStats &fs) {
                          harvestRow(frame, fs, cb);
                          bracket.close();
                      },
                      [&bracket](int) {
                          bracket.open();
                          return true;
                      });
}

double
MultiConfigRunner::averageHostBytesPerFrame(size_t idx) const
{
    if (rows_.empty())
        return 0.0;
    uint64_t total = 0;
    for (const auto &row : rows_)
        total += row.sims[idx].host_bytes;
    return static_cast<double>(total) / static_cast<double>(rows_.size());
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

namespace {

constexpr uint32_t kRunTag = snapTag("RUN ");

void
saveFrameStats(SnapshotWriter &w, const FrameStats &fs)
{
    w.u64(fs.objects_visible);
    w.u64(fs.triangles_in);
    w.u64(fs.triangles_drawn);
    w.u64(fs.pixels_textured);
    w.u64(fs.texel_accesses);
}

void
loadFrameStats(SnapshotReader &r, FrameStats &fs)
{
    fs.objects_visible = r.u64();
    fs.triangles_in = r.u64();
    fs.triangles_drawn = r.u64();
    fs.pixels_textured = r.u64();
    fs.texel_accesses = r.u64();
}

void
saveWorkingSet(SnapshotWriter &w, const FrameWorkingSet &ws)
{
    w.u64(ws.pixel_refs);
    w.u64(ws.textures_touched);
    w.u64(ws.push_bytes);
    w.u64(ws.loaded_bytes);
    w.u32(static_cast<uint32_t>(ws.l2.size()));
    for (const auto &e : ws.l2) {
        w.u32(e.l2_tile);
        w.u64(e.blocks_touched);
        w.u64(e.blocks_new);
    }
    w.u32(static_cast<uint32_t>(ws.l1.size()));
    for (const auto &e : ws.l1) {
        w.u32(e.l1_tile);
        w.u64(e.tiles_touched);
        w.u64(e.tiles_new);
    }
}

void
loadWorkingSet(SnapshotReader &r, FrameWorkingSet &ws)
{
    ws.pixel_refs = r.u64();
    ws.textures_touched = r.u64();
    ws.push_bytes = r.u64();
    ws.loaded_bytes = r.u64();
    ws.l2.resize(r.u32());
    for (auto &e : ws.l2) {
        e.l2_tile = r.u32();
        e.blocks_touched = r.u64();
        e.blocks_new = r.u64();
    }
    ws.l1.resize(r.u32());
    for (auto &e : ws.l1) {
        e.l1_tile = r.u32();
        e.tiles_touched = r.u64();
        e.tiles_new = r.u64();
    }
}

} // namespace

void
MultiConfigRunner::saveCheckpoint(const std::string &path,
                                  int next_frame) const
{
    SnapshotWriter w(path);
    // Generational commit: the last good checkpoint survives as
    // `<path>.prev` so a torn commit (crash or injected fault) can
    // never leave a resume with nothing valid to load.
    w.keepPrevious(true);
    w.section(kRunTag);

    // Driver configuration fingerprint: resuming under a different
    // resolution/filter/length would not reproduce the straight run.
    w.u32(static_cast<uint32_t>(config_.width));
    w.u32(static_cast<uint32_t>(config_.height));
    w.u8(static_cast<uint8_t>(config_.filter));
    w.u32(static_cast<uint32_t>(config_.frames));
    w.u8(config_.z_prepass ? 1 : 0);

    w.u32(static_cast<uint32_t>(next_frame));

    w.u32(static_cast<uint32_t>(sims_.size()));
    for (size_t i = 0; i < sims_.size(); ++i) {
        w.str(sims_[i]->label());
        const bool dead = i < quarantine_.size() && quarantine_[i].dead;
        w.u8(dead ? 1 : 0);
        if (dead) {
            w.u8(static_cast<uint8_t>(quarantine_[i].error.code));
            w.str(quarantine_[i].error.message);
            w.u32(static_cast<uint32_t>(quarantine_[i].at_frame));
        }
        // Crash-loop state (v5): a resumed run continues the same
        // consecutive-failure count and backoff schedule.
        const SimQuarantine q =
            i < quarantine_.size() ? quarantine_[i] : SimQuarantine{};
        w.u32(q.failures);
        w.u32(static_cast<uint32_t>(q.revive_at_frame + 1));
    }
    for (const auto &sim : sims_)
        sim->save(w);

    w.u8(working_sets_ ? 1 : 0);
    if (working_sets_)
        working_sets_->save(w);
    w.u8(push_ ? 1 : 0);
    if (push_)
        push_->save(w);

    w.u64(rows_.size());
    for (const auto &row : rows_) {
        w.u32(static_cast<uint32_t>(row.frame));
        saveFrameStats(w, row.raster);
        if (row.sims.size() != sims_.size())
            throw Exception(ErrorCode::Corrupt,
                            "saveCheckpoint: row " +
                                std::to_string(row.frame) +
                                " has an inconsistent simulator count");
        for (const auto &s : row.sims)
            s.save(w);
        w.u8(row.working_sets ? 1 : 0);
        if (row.working_sets)
            saveWorkingSet(w, *row.working_sets);
        w.u64(row.push_bytes);
    }

    w.finish();
}

int
MultiConfigRunner::loadCheckpoint(const std::string &path)
{
    SnapshotReader r = openSnapshotGeneration(path);
    r.expectSection(kRunTag, "MultiConfigRunner");

    const uint32_t width = r.u32();
    const uint32_t height = r.u32();
    const uint8_t filter = r.u8();
    const uint32_t frames = r.u32();
    const uint8_t z_prepass = r.u8();
    if (width != static_cast<uint32_t>(config_.width) ||
        height != static_cast<uint32_t>(config_.height) ||
        filter != static_cast<uint8_t>(config_.filter) ||
        frames != static_cast<uint32_t>(config_.frames) ||
        (z_prepass != 0) != config_.z_prepass)
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: snapshot driver configuration "
                        "(resolution/filter/frames) does not match this run");

    const uint32_t next_frame = r.u32();

    const uint32_t sim_count = r.u32();
    if (sim_count != sims_.size())
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: snapshot has " +
                            std::to_string(sim_count) +
                            " simulators, this runner has " +
                            std::to_string(sims_.size()));
    quarantine_.assign(sims_.size(), {});
    for (size_t i = 0; i < sims_.size(); ++i) {
        const std::string label = r.str();
        if (label != sims_[i]->label())
            throw Exception(ErrorCode::VersionMismatch,
                            "loadCheckpoint: simulator " + std::to_string(i) +
                                " is labelled '" + label +
                                "' in the snapshot but '" +
                                sims_[i]->label() + "' here");
        if (r.u8() != 0) {
            quarantine_[i].dead = true;
            quarantine_[i].error.code = static_cast<ErrorCode>(r.u8());
            quarantine_[i].error.message = r.str();
            quarantine_[i].at_frame = static_cast<int>(r.u32());
        }
        quarantine_[i].failures = r.u32();
        quarantine_[i].revive_at_frame = static_cast<int>(r.u32()) - 1;
    }
    for (auto &sim : sims_)
        sim->load(r);

    const uint8_t has_ws = r.u8();
    if ((has_ws != 0) != (working_sets_ != nullptr))
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: working-set collector presence "
                        "differs from the snapshot");
    if (working_sets_)
        working_sets_->load(r);
    const uint8_t has_push = r.u8();
    if ((has_push != 0) != (push_ != nullptr))
        throw Exception(ErrorCode::VersionMismatch,
                        "loadCheckpoint: push-model presence differs from "
                        "the snapshot");
    if (push_)
        push_->load(r);

    const uint64_t row_count = r.u64();
    rows_.clear();
    rows_.reserve(row_count);
    for (uint64_t i = 0; i < row_count; ++i) {
        FrameRow row;
        row.frame = static_cast<int>(r.u32());
        loadFrameStats(r, row.raster);
        row.sims.resize(sims_.size());
        for (auto &s : row.sims)
            s.load(r);
        if (r.u8() != 0) {
            FrameWorkingSet ws;
            loadWorkingSet(r, ws);
            row.working_sets = std::move(ws);
        }
        row.push_bytes = r.u64();
        rows_.push_back(std::move(row));
    }
    r.expectEnd();
    return static_cast<int>(next_frame);
}

// ---------------------------------------------------------------------------
// Supervised run

namespace {

/**
 * Per-simulator isolation: forwards the access stream until the wrapped
 * sink throws, then quarantines it (records the error, stops
 * forwarding) so the remaining configurations finish the run. Forwarded
 * calls run under the owning leg's profiler root, so a lockstep group's
 * samples of this simulator fold under that leg.
 */
class GuardedSink final : public TexelAccessSink
{
  public:
    GuardedSink(TexelAccessSink &inner, SimQuarantine *q,
                const int *current_frame, const char *profile_root)
        : inner_(inner), q_(q), current_frame_(current_frame),
          root_(profile_root)
    {
    }

    void
    bindTexture(TextureId tid) override
    {
        forward([&] { inner_.bindTexture(tid); });
    }

    void
    beginPixel(uint32_t px, uint32_t py) override
    {
        forward([&] { inner_.beginPixel(px, py); });
    }

    void
    access(uint32_t x, uint32_t y, uint32_t mip) override
    {
        forward([&] { inner_.access(x, y, mip); });
    }

    void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip) override
    {
        forward([&] { inner_.accessQuad(x0, y0, x1, y1, mip); });
    }

    void
    accessBatch(std::span<const TexelRef> refs) override
    {
        forward([&] { inner_.accessBatch(refs); });
    }

    /** Record @p err and stop forwarding (used for audit violations). */
    void
    quarantineWith(const Error &err)
    {
        q_->dead = true;
        q_->error = err;
        q_->at_frame = *current_frame_;
        ++q_->failures;
        q_->revive_at_frame = -1; // gate reschedules from the new failure
        quarantineNotice("sim.quarantined",
                         static_cast<double>(*current_frame_));
    }

  private:
    template <class F>
    void
    forward(F &&fn)
    {
        if (q_->dead)
            return;
        ScopedProfileRoot root(root_);
        try {
            fn();
        } catch (...) {
            quarantine();
        }
    }

    void
    quarantine()
    {
        try {
            throw;
        } catch (const Exception &e) {
            quarantineWith(e.error());
        } catch (const std::exception &e) {
            quarantineWith({ErrorCode::None, e.what()});
        } catch (...) {
            quarantineWith({ErrorCode::None, "unknown exception"});
        }
    }

    TexelAccessSink &inner_;
    SimQuarantine *q_;
    const int *current_frame_;
    const char *root_;
};

} // namespace

void
MultiConfigRunner::writeManifest(const RunManifest &manifest) const
{
    auto sanitize = [](std::string s) {
        for (char &c : s)
            if (c == ',' || c == '\n' || c == '\r')
                c = ';';
        return s;
    };

    CsvWriter csv(manifest.checkpoint + ".manifest",
                  {"record", "label", "status", "frames_completed",
                   "next_frame", "error_code", "error",
                   "checkpoint_failures"});
    csv.rowStrings({"run", "", runOutcomeName(manifest.outcome),
                    std::to_string(manifest.frames_completed),
                    std::to_string(manifest.next_frame), "", "",
                    std::to_string(manifest.checkpoint_write_failures)});
    for (const auto &s : manifest.sims) {
        csv.rowStrings({"sim", sanitize(s.label),
                        s.quarantined ? "quarantined" : "ok",
                        s.quarantined ? std::to_string(s.quarantined_at_frame)
                                      : "",
                        "",
                        s.quarantined ? errorCodeName(s.error.code) : "",
                        s.quarantined ? sanitize(s.error.message) : "",
                        std::to_string(s.restart_failures)});
    }
    csv.close();
}

namespace {

using Clock = std::chrono::steady_clock;
using MsDouble = std::chrono::duration<double, std::milli>;

} // namespace

struct MultiConfigRunner::Supervision
{
    Supervision(const ResilienceConfig &rc, MultiConfigRunner &runner)
        : sup(rc, std::bind_front(&MultiConfigRunner::saveCheckpoint, &runner),
              runner.obs_)
    {
    }

    RunSupervisor sup; ///< gate, deadline, checkpoint ladder, end of run
    RowCallback cb;
    int start_frame = 0;   ///< first frame this runner consumes
    int current_frame = 0; ///< frame the guards attribute failures to
    int next_frame = 0;    ///< where a resume would continue
    std::vector<std::unique_ptr<GuardedSink>> guards; ///< parallel to sims_
    FanoutSink fanout;
};

void
MultiConfigRunner::publishRunTelemetry(const char *status, int frame)
{
    // Live telemetry: the scrape thread only reads the pushed strings,
    // never runner state.
    if (!obs_ || !obs_->telemetry())
        return;
    size_t dead = 0;
    for (const SimQuarantine &q : quarantine_)
        if (q.dead)
            ++dead;
    JsonWriter h;
    h.beginObject();
    h.kv("status", status);
    h.kv("frame", static_cast<int64_t>(frame));
    h.kv("frames", static_cast<int64_t>(config_.frames));
    h.kv("quarantined", static_cast<uint64_t>(dead));
    h.kv("checkpoint_write_failures",
         static_cast<int64_t>(sup_->sup.checkpointWriteFailures()));
    h.endObject();
    obs_->telemetry()->publishHealth(h.str());

    JsonWriter r;
    r.beginObject();
    r.kv("mode", "sims");
    r.kv("width", config_.width);
    r.kv("height", config_.height);
    r.kv("frames", static_cast<int64_t>(config_.frames));
    r.kv("frame", static_cast<int64_t>(frame));
    r.key("sims");
    r.beginArray();
    for (size_t i = 0; i < sims_.size(); ++i) {
        r.beginObject();
        r.kv("index", static_cast<uint64_t>(i));
        r.kv("label", sims_[i]->label());
        r.kv("status", quarantine_[i].dead ? "quarantined" : "serving");
        r.kv("failures", static_cast<uint64_t>(quarantine_[i].failures));
        r.endObject();
    }
    r.endArray();
    r.endObject();
    obs_->telemetry()->publishRunz(r.str());
}

int
MultiConfigRunner::beginSupervised(const ResilienceConfig &rc,
                                   const RowCallback &cb,
                                   const char *profile_root)
{
    sup_.reset();
    auto s = std::make_unique<Supervision>(rc, *this);
    int start_frame = 0;
    if (rc.resume)
        start_frame = loadCheckpoint(rc.checkpoint_path);
    else {
        rows_.clear();
        quarantine_.assign(sims_.size(), {});
    }
    if (quarantine_.size() != sims_.size())
        quarantine_.assign(sims_.size(), {});

    s->cb = cb;
    s->start_frame = s->current_frame = s->next_frame = start_frame;
    s->guards.reserve(sims_.size());
    for (size_t i = 0; i < sims_.size(); ++i) {
        s->guards.push_back(std::make_unique<GuardedSink>(
            *sims_[i], &quarantine_[i], &s->current_frame, profile_root));
        s->fanout.add(s->guards.back().get());
    }
    if (working_sets_)
        s->fanout.add(working_sets_.get());
    if (push_)
        s->fanout.add(push_.get());
    for (auto *sink : extra_sinks_)
        s->fanout.add(sink);
    sup_ = std::move(s);

    publishRunTelemetry("serving", start_frame);
    return start_frame;
}

bool
MultiConfigRunner::gateFrame(int frame, bool cancelled)
{
    Supervision &s = *sup_;
    const ResilienceConfig &rc = s.sup.config();
    const bool joined = frame >= s.start_frame;
    if (joined) {
        s.current_frame = frame;
        s.next_frame = frame;
    }
    if (!s.sup.admit(cancelled))
        return false;
    if (!joined)
        return true;

    // Crash-loop containment: a quarantined simulator is revived after
    // an exponential frame backoff while its consecutive failure count
    // stays within --restart-limit; one failure past the limit and the
    // quarantine is permanent. Revival is gated on a clean audit so a
    // corrupted simulator never rejoins.
    if (rc.restart_limit > 0) {
        for (size_t i = 0; i < sims_.size(); ++i) {
            SimQuarantine &q = quarantine_[i];
            if (!q.dead || q.failures > rc.restart_limit)
                continue;
            if (q.revive_at_frame < 0) {
                const uint32_t shift = std::min<uint32_t>(
                    q.failures > 0 ? q.failures - 1 : 0, 16);
                q.revive_at_frame = q.at_frame + static_cast<int>(1u << shift);
            }
            if (frame < q.revive_at_frame)
                continue;
            try {
                if (rc.audit != AuditLevel::Off)
                    sims_[i]->audit(rc.audit);
                q.dead = false;
                q.revive_at_frame = -1;
                logInfo("runSupervised: restarted '" + sims_[i]->label() +
                        "' at frame " + std::to_string(frame) +
                        " (failure " + std::to_string(q.failures) + "/" +
                        std::to_string(rc.restart_limit) + ")");
                if (ChromeTraceWriter *t = globalTracer())
                    t->instant("sim.restarted", "runner");
            } catch (const Exception &e) {
                // The revival audit failed: count it as another
                // consecutive failure and back off further.
                q.error = e.error();
                q.at_frame = frame;
                ++q.failures;
                q.revive_at_frame = -1;
            }
        }
    }
    return true;
}

TexelAccessSink &
MultiConfigRunner::frameSink()
{
    return sup_->fanout;
}

void
MultiConfigRunner::harvestFrame(int frame, const FrameStats &fs)
{
    Supervision &s = *sup_;
    harvestRow(frame, fs, s.cb);
    s.next_frame = frame + 1;

    // Invariant audits at the frame boundary: a violating simulator is
    // quarantined (its state can no longer be trusted) and the healthy
    // configurations continue.
    const AuditLevel audit = s.sup.config().audit;
    if (audit != AuditLevel::Off) {
        for (size_t i = 0; i < sims_.size(); ++i) {
            if (quarantine_[i].dead)
                continue;
            try {
                sims_[i]->audit(audit);
            } catch (const Exception &e) {
                s.guards[i]->quarantineWith(e.error());
            }
        }
    }

    // A clean frame (alive, no failure recorded this frame) resets the
    // consecutive-failure count, so only genuine crash loops accumulate
    // toward --restart-limit.
    for (auto &q : quarantine_)
        if (!q.dead && q.failures > 0 && q.at_frame != frame)
            q.failures = 0;
}

void
MultiConfigRunner::commitFrame(int frame, double frame_ms)
{
    sup_->sup.commit(frame + 1, frame_ms);
    publishRunTelemetry("serving", frame + 1);
}

RunManifest
MultiConfigRunner::endSupervised()
{
    Supervision &s = *sup_;
    s.sup.finish(s.next_frame);

    RunManifest manifest;
    manifest.outcome = s.sup.outcome();
    manifest.frames_completed = static_cast<int>(rows_.size());
    manifest.next_frame = s.next_frame;
    manifest.checkpoint = s.sup.config().checkpoint_path;
    manifest.checkpoint_write_failures = s.sup.checkpointWriteFailures();
    manifest.sims.reserve(sims_.size());
    for (size_t i = 0; i < sims_.size(); ++i)
        manifest.sims.push_back({sims_[i]->label(), quarantine_[i].dead,
                                 quarantine_[i].at_frame,
                                 quarantine_[i].error,
                                 quarantine_[i].failures});
    if (!manifest.checkpoint.empty()) {
        try {
            writeManifest(manifest);
        } catch (const Exception &e) {
            logWarn("runSupervised: manifest write failed (" +
                    e.error().describe() + ")");
        }
    }
    publishRunTelemetry(runOutcomeName(manifest.outcome), s.next_frame);
    sup_.reset();
    return manifest;
}

RunManifest
MultiConfigRunner::runSupervised(const ResilienceConfig &rc,
                                 const RowCallback &cb)
{
    LockstepLeg leg;
    leg.runner = this;
    leg.rc = rc;
    leg.cb = cb;
    runLockstep({&leg, 1});
    if (leg.error)
        std::rethrow_exception(leg.error);
    return std::move(leg.manifest);
}

void
runLockstep(std::span<LockstepLeg> legs)
{
    if (legs.empty())
        return;
    const MultiConfigRunner &lead = *legs.front().runner;

    // Setup, leg by leg: a leg whose resume fails drops out alone.
    std::vector<LockstepLeg *> live;
    std::vector<int> start;
    for (LockstepLeg &leg : legs) {
        ScopedProfileRoot root(leg.profile_root);
        try {
            MultiConfigRunner &r = *leg.runner;
            if (&r.workload_ != &lead.workload_ || r.config_ != lead.config_)
                throw Exception(ErrorCode::BadArgument,
                                "runLockstep: every leg must share one "
                                "workload and driver configuration");
            start.push_back(
                r.beginSupervised(leg.rc, leg.cb, leg.profile_root));
            live.push_back(&leg);
        } catch (...) {
            leg.error = std::current_exception();
        }
    }
    if (live.empty())
        return;

    std::vector<char> attached(live.size(), 1);

    // Run one supervision step of leg k under its profiler root; a
    // throw detaches that leg only.
    const auto step = [&](size_t k, auto &&fn) {
        ScopedProfileRoot root(live[k]->profile_root);
        try {
            fn(*live[k]->runner);
        } catch (...) {
            live[k]->error = std::current_exception();
            attached[k] = 0;
        }
    };

    FanoutSink fanout;
    std::vector<size_t> consuming; ///< legs fed the frame being rendered
    FrameBracket bracket;
    Clock::time_point frame_start;

    const FrameGate gate = [&](int frame) {
        flightFrame(frame);
        // One read of the flag per frame: every leg stops at the same
        // boundary however late in the gate a signal lands.
        const bool cancelled = cancellationRequested();
        fanout.clear();
        consuming.clear();
        bool any = false;
        for (size_t k = 0; k < live.size(); ++k) {
            if (!attached[k])
                continue;
            bool go = false;
            step(k, [&](MultiConfigRunner &r) {
                go = r.gateFrame(frame, cancelled);
            });
            if (!go) {
                attached[k] = 0;
                continue;
            }
            any = true;
            if (frame >= start[k]) {
                fanout.add(&live[k]->runner->frameSink());
                consuming.push_back(k);
            }
        }
        if (!any)
            return false;
        frame_start = Clock::now();
        bracket.open();
        return true;
    };

    const FrameCallback per_frame = [&](int frame, const FrameStats &fs) {
        for (size_t k : consuming)
            step(k, [&](MultiConfigRunner &r) { r.harvestFrame(frame, fs); });
        bracket.close();
        const double frame_ms = MsDouble(Clock::now() - frame_start).count();
        for (size_t k : consuming)
            if (attached[k])
                step(k, [&](MultiConfigRunner &r) {
                    r.commitFrame(frame, frame_ms);
                });
    };

    runAnimationRange(lead.workload_, lead.config_, &fanout,
                      *std::min_element(start.begin(), start.end()),
                      per_frame, gate);
    bracket.close();

    for (size_t k = 0; k < live.size(); ++k)
        if (!live[k]->error)
            step(k, [&](MultiConfigRunner &r) {
                live[k]->manifest = r.endSupervised();
            });
}

} // namespace mltc
