/**
 * @file
 * The benchmark's own driver: recomputes what one cache_explorer
 * command computes, through the libraries' public calls, so that the
 * command's printed outputs can be checked and its time attributed to
 * layers.
 *
 *   perfbench_trace --mode reference|trace --out DIR <command flags>
 *
 * where <command flags> is the subset of cache_explorer's flags the
 * benchmark uses:
 *   --sweep l2|l2tile --workload NAME --frames F [--miss-classes] [--mrc]
 *   --streams K --l2-policy P --stream-workloads LIST --rounds R --jobs J
 *
 * reference: the command's outputs computed another way. A sweep
 *   rasterizes each frame once into captured TexelRef spans and replays
 *   them into every configuration (the CLI re-rasterizes per leg and
 *   feeds the simulator directly); DIR/sweep.txt holds the tables the
 *   CLI prints. Streams run MultiStreamRunner serially (the command
 *   records with --jobs J); DIR/ref.streamI.csv are its per-round CSVs.
 *   DIR/summary.json holds the texel accesses simulated and the
 *   operation count (frames x configurations, or rounds x streams).
 * trace: the reference plus timed passes over the same frames; writes
 *   the per-layer metrics to DIR/layers.json.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/cache_sim.hpp"
#include "obs/reuse_profiler.hpp"
#include "raster/access_sink.hpp"
#include "raster/rasterizer.hpp"
#include "sim/multi_config_runner.hpp"
#include "sim/multi_stream_runner.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

using namespace mltc;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Resident set size of this process in bytes. */
double
residentBytes()
{
    unsigned long size = 0, resident = 0;
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (f) {
        if (std::fscanf(f, "%lu %lu", &size, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

/**
 * One frame's access stream as the rasterizer delivered it: texture
 * binds and TexelRef batches, in order and with the original batch
 * boundaries.
 */
class CaptureSink final : public TexelAccessSink
{
  public:
    struct Op
    {
        uint32_t a = 0;     ///< texture id (bind) or first ref (batch)
        uint32_t count = 0; ///< refs in the batch; kBind for a bind
    };
    static constexpr uint32_t kBind = ~0u;

    void
    clear()
    {
        ops_.clear();
        refs_.clear();
    }

    void
    bindTexture(TextureId tid) override
    {
        ops_.push_back({tid, kBind});
    }

    void
    beginPixel(uint32_t px, uint32_t py) override
    {
        pushOne(TexelRef::pixel(px, py));
    }

    void
    access(uint32_t x, uint32_t y, uint32_t mip) override
    {
        pushOne(TexelRef::texel(x, y, mip));
    }

    void
    accessQuad(uint32_t x0, uint32_t y0, uint32_t x1, uint32_t y1,
               uint32_t mip) override
    {
        pushOne(TexelRef::quad(x0, y0, x1, y1, mip));
    }

    void accessBatch(std::span<const TexelRef> refs) override { push(refs); }

    size_t refCount() const { return refs_.size(); }

    /** Bytes held by the captured spans. */
    double
    spanBytes() const
    {
        return static_cast<double>(refs_.size() * sizeof(TexelRef) +
                                   ops_.size() * sizeof(Op));
    }

    /** Replay through accessBatch(), batch for batch. */
    void
    replayBatched(TexelAccessSink &sink) const
    {
        for (const Op &op : ops_) {
            if (op.count == kBind)
                sink.bindTexture(op.a);
            else
                sink.accessBatch(std::span<const TexelRef>(
                    refs_.data() + op.a, op.count));
        }
    }

    /** Replay through the scalar entry points, event for event. */
    void
    replayScalar(TexelAccessSink &sink) const
    {
        for (const Op &op : ops_) {
            if (op.count == kBind) {
                sink.bindTexture(op.a);
                continue;
            }
            for (uint32_t i = op.a; i < op.a + op.count; ++i) {
                const TexelRef &r = refs_[i];
                if (r.kind == TexelRef::kTexel)
                    sink.access(r.x0, r.y0, r.mip);
                else if (r.kind == TexelRef::kQuad)
                    sink.accessQuad(r.x0, r.y0, r.x1, r.y1, r.mip);
                else
                    sink.beginPixel(r.x0, r.y0);
            }
        }
    }

  private:
    void
    pushOne(const TexelRef &ref)
    {
        push(std::span<const TexelRef>(&ref, 1));
    }

    void
    push(std::span<const TexelRef> refs)
    {
        ops_.push_back({static_cast<uint32_t>(refs_.size()),
                        static_cast<uint32_t>(refs.size())});
        refs_.insert(refs_.end(), refs.begin(), refs.end());
    }

    std::vector<Op> ops_;
    std::vector<TexelRef> refs_;
};

/** A simulator fed from captured frames, with its replay time. */
struct TimedSim
{
    std::unique_ptr<CacheSim> sim;
    std::unique_ptr<ReuseProfiler> profiler;
    bool scalar = false;
    double seconds = 0.0;
    uint32_t victim_steps_max = 0;

    void
    consume(const CaptureSink &frame)
    {
        const Clock::time_point t0 = Clock::now();
        if (scalar)
            frame.replayScalar(*sim);
        else
            frame.replayBatched(*sim);
        const CacheFrameStats fs = sim->endFrame();
        seconds += secondsSince(t0);
        victim_steps_max = std::max(victim_steps_max, fs.victim_steps_max);
    }
};

/** The reuse profiler exactly as cache_explorer --mrc configures it. */
std::unique_ptr<ReuseProfiler>
attachProfiler(CacheSim &sim, int width, int height)
{
    ReuseProfilerConfig pc;
    pc.enabled = true;
    pc.screen_width = static_cast<uint32_t>(width);
    pc.screen_height = static_cast<uint32_t>(height);
    pc.l1_unit_bytes = sim.config().l1.lineBytes();
    pc.l2_unit_bytes = sim.config().l1.lineBytes();
    auto profiler = std::make_unique<ReuseProfiler>(pc);
    sim.setReuseProfiler(profiler.get());
    return profiler;
}

/** Sums of the timed per-frame layer passes over one workload. */
struct LayerSums
{
    double texels = 0;     ///< FrameStats::texel_accesses
    double refs = 0;       ///< captured TexelRefs (incl. pixel markers)
    double span_bytes = 0; ///< captured span bytes
    double frames = 0;
    double null_s = 0;     ///< raster into NullSink
    double capture_s = 0;  ///< raster into CaptureSink
    double build_s = 0;    ///< buildWorkload calls in the pass
    std::vector<double> builds;
};

/** What the per-layer split replays measured (plain data). */
struct SplitResult
{
    double plain_s = 0;      ///< batched replays of every configuration
    double plain_texels = 0; ///< accesses those replays consumed
    double first_s = 0;      ///< batched replay of the first configuration
    CacheFrameStats first;   ///< its totals
    uint32_t victim_steps_max = 0;
    double pull_s = 0, scalar_s = 0, classify_s = 0, mrc_s = 0;
    double mrc_rss_bytes = 0;

    void
    add(const SplitResult &o)
    {
        plain_s += o.plain_s;
        plain_texels += o.plain_texels;
        first_s += o.first_s;
        first.add(o.first);
        victim_steps_max = std::max(victim_steps_max, o.victim_steps_max);
        pull_s += o.pull_s;
        scalar_s += o.scalar_s;
        classify_s += o.classify_s;
        mrc_s += o.mrc_s;
        mrc_rss_bytes += o.mrc_rss_bytes;
    }
};

/**
 * The per-layer split replays, fed the same frames as the command: each
 * configuration batched with nothing attached, and the first one as an
 * L1-only pull cache, through the scalar entry points, with 3C
 * classification, and with the reuse profiler --mrc attaches.
 */
class SplitSims
{
  public:
    SplitSims(TextureManager &textures,
              const std::vector<CacheSimConfig> &configs, int width,
              int height)
    {
        for (CacheSimConfig c : configs) {
            c.classify_misses = false;
            plain_.push_back(
                {std::make_unique<CacheSim>(textures, c), nullptr});
        }
        CacheSimConfig base = configs.front();
        base.classify_misses = false;
        pull_.sim = std::make_unique<CacheSim>(
            textures, CacheSimConfig::pull(base.l1.size_bytes,
                                           base.l1.l1_tile));
        scalar_.sim = std::make_unique<CacheSim>(textures, base);
        scalar_.scalar = true;
        CacheSimConfig cls = base;
        cls.classify_misses = true;
        classify_.sim = std::make_unique<CacheSim>(textures, cls);
        const double rss0 = residentBytes();
        mrc_.sim = std::make_unique<CacheSim>(textures, base);
        mrc_.profiler = attachProfiler(*mrc_.sim, width, height);
        mrc_rss_bytes_ = residentBytes() - rss0;
    }

    void
    consume(const CaptureSink &frame)
    {
        for (TimedSim &s : plain_)
            s.consume(frame);
        pull_.consume(frame);
        scalar_.consume(frame);
        classify_.consume(frame);
        const double rss0 = residentBytes();
        mrc_.consume(frame);
        mrc_rss_bytes_ += residentBytes() - rss0;
    }

    SplitResult
    result() const
    {
        SplitResult r;
        for (const TimedSim &s : plain_) {
            r.plain_s += s.seconds;
            r.plain_texels += static_cast<double>(s.sim->totals().accesses);
        }
        r.first_s = plain_.front().seconds;
        r.first = plain_.front().sim->totals();
        r.victim_steps_max = plain_.front().victim_steps_max;
        r.pull_s = pull_.seconds;
        r.scalar_s = scalar_.seconds;
        r.classify_s = classify_.seconds;
        r.mrc_s = mrc_.seconds;
        r.mrc_rss_bytes = mrc_rss_bytes_;
        return r;
    }

  private:
    std::vector<TimedSim> plain_;
    TimedSim pull_, scalar_, classify_, mrc_;
    double mrc_rss_bytes_ = 0; ///< RSS grown by the profiled simulator
};

/** Rasterize one frame captured, after a NullSink render if asked. */
void
renderTimed(Rasterizer &raster, const Workload &wl, const Camera &cam,
            CaptureSink &capture, LayerSums &sums, bool with_null)
{
    Clock::time_point t0 = Clock::now();
    if (with_null) {
        NullSink null;
        raster.setSink(&null);
        raster.renderFrame(wl.scene, cam, *wl.textures);
        sums.null_s += secondsSince(t0);
    }

    capture.clear();
    raster.setSink(&capture);
    t0 = Clock::now();
    const FrameStats fs = raster.renderFrame(wl.scene, cam, *wl.textures);
    sums.capture_s += secondsSince(t0);
    raster.setSink(nullptr);

    sums.texels += static_cast<double>(fs.texel_accesses);
    sums.refs += static_cast<double>(capture.refCount());
    sums.span_bytes += capture.spanBytes();
    sums.frames += 1;
}

Workload
timedBuild(const std::string &name, LayerSums &sums)
{
    const Clock::time_point t0 = Clock::now();
    Workload wl = buildWorkload(name);
    const double s = secondsSince(t0);
    sums.build_s += s;
    sums.builds.push_back(s);
    return wl;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Named per-layer values, written as one flat JSON object. */
class LayerReport
{
  public:
    void
    set(const std::string &name, double value)
    {
        rows_.emplace_back(name, value);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{";
        for (size_t i = 0; i < rows_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", rows_[i].second);
            out << (i ? ",\n \"" : "\"") << rows_[i].first << "\": " << buf;
        }
        out << "}\n";
        if (!out)
            throw Exception(ErrorCode::Io, "cannot write " + path);
    }

  private:
    std::vector<std::pair<std::string, double>> rows_;
};

/** The per-layer metrics every workload reports the same way. */
void
reportSplit(LayerReport &rep, const LayerSums &ls, const SplitResult &sr)
{
    const double ns = 1e9 / ls.texels;
    const CacheFrameStats &t = sr.first;
    rep.set("workload.build_s", median(ls.builds));
    rep.set("raster.ns_per_texel", ls.null_s * ns);
    rep.set("raster.emit_ns_per_texel", (ls.capture_s - ls.null_s) * ns);
    rep.set("raster.refs_per_texel", ls.refs / ls.texels);
    rep.set("trace.span_mb_per_frame", ls.span_bytes / ls.frames / (1 << 20));
    rep.set("core.batch_ns_per_texel", sr.plain_s * 1e9 / sr.plain_texels);
    rep.set("core.l1_ns_per_texel", sr.pull_s * ns);
    rep.set("core.l2_ns_per_miss",
            (sr.first_s - sr.pull_s) * 1e9 /
                static_cast<double>(std::max<uint64_t>(t.l1_misses, 1)));
    rep.set("core.scalar_ns_per_texel", sr.scalar_s * ns);
    rep.set("obs.classify_ns_per_texel", (sr.classify_s - sr.scalar_s) * ns);
    rep.set("obs.mrc_ns_per_texel", (sr.mrc_s - sr.scalar_s) * ns);
    rep.set("obs.mrc_rss_mb", sr.mrc_rss_bytes / (1 << 20));
    rep.set("raster.texels_per_frame", ls.texels / ls.frames);
    rep.set("core.l1_hit_rate", t.l1HitRate());
    rep.set("core.l2_full_hit_rate", t.l2FullHitRate());
    rep.set("core.victim_steps_max", sr.victim_steps_max);
    rep.set("host.mb_per_frame",
            static_cast<double>(t.host_bytes) / ls.frames / (1 << 20));
}

void
writeSummary(const std::string &dir, double texels, uint64_t ops)
{
    std::ofstream out(dir + "/summary.json");
    out << "{\"texels\": " << static_cast<uint64_t>(texels)
        << ", \"operations\": " << ops << "}\n";
    if (!out)
        throw Exception(ErrorCode::Io, "cannot write " + dir);
}

// ------------------------------------------------------------- sweeps

struct Candidate
{
    CacheSimConfig config;
    std::string label;
};

/** cache_explorer's swept configurations for the sweeps used here. */
std::vector<Candidate>
sweepCandidates(const std::string &sweep, bool classify)
{
    std::vector<Candidate> out;
    if (sweep == "l2") {
        for (uint64_t mb : {1u, 2u, 4u, 8u, 16u})
            out.push_back({CacheSimConfig::twoLevel(2 * 1024, mb << 20),
                           std::to_string(mb) + " MB L2"});
    } else if (sweep == "l2tile") {
        for (uint32_t tile : {8u, 16u, 32u})
            out.push_back(
                {CacheSimConfig::twoLevel(2 * 1024, 2ull << 20, tile),
                 std::to_string(tile) + "x" + std::to_string(tile) +
                     " L2 tiles"});
    } else {
        throw Exception(ErrorCode::BadArgument,
                        "--sweep: expected l2 or l2tile, got '" + sweep +
                            "'");
    }
    for (Candidate &c : out)
        c.config.classify_misses = classify;
    return out;
}

/** The sweep tables cache_explorer prints, from finished simulators. */
std::string
sweepTables(const std::vector<TimedSim> &sims, int frames, bool classes)
{
    TextTable table({"configuration", "L1 hit", "L2 full hit", "TLB hit",
                     "host MB/frame", "retries", "degraded"});
    for (const TimedSim &s : sims) {
        const CacheFrameStats &t = s.sim->totals();
        table.addRow(
            {s.sim->label(), formatPercent(t.l1HitRate(), 2),
             s.sim->l2() ? formatPercent(t.l2FullHitRate()) : "-",
             s.sim->tlb() ? formatPercent(t.tlbHitRate()) : "-",
             formatDouble(static_cast<double>(t.host_bytes) /
                              static_cast<double>(frames) / (1 << 20),
                          3),
             "-", "-"});
    }
    std::string out = table.render();
    if (classes) {
        TextTable cls({"configuration", "cache", "compulsory", "capacity",
                       "conflict"});
        for (const TimedSim &s : sims) {
            const CacheFrameStats &t = s.sim->totals();
            cls.addRow({s.sim->label(), "L1", std::to_string(t.l1_compulsory),
                        std::to_string(t.l1_capacity),
                        std::to_string(t.l1_conflict)});
            if (s.sim->l2Classifier())
                cls.addRow({s.sim->label(), "L2",
                            std::to_string(t.l2_compulsory),
                            std::to_string(t.l2_capacity),
                            std::to_string(t.l2_conflict)});
        }
        out += "\n3C miss classification (run totals):\n" + cls.render();
    }
    if (!sims.empty() && sims.front().profiler)
        out += "\nreuse-distance profile of '" + sims.front().sim->label() +
               "':\n" + sims.front().profiler->asciiMrc();
    return out;
}

bool
sameTotals(const CacheFrameStats &a, const CacheFrameStats &b)
{
    return a.accesses == b.accesses && a.l1_misses == b.l1_misses &&
           a.l2_full_hits == b.l2_full_hits &&
           a.l2_partial_hits == b.l2_partial_hits &&
           a.l2_full_misses == b.l2_full_misses &&
           a.host_bytes == b.host_bytes &&
           a.l2_read_bytes == b.l2_read_bytes &&
           a.l1_compulsory == b.l1_compulsory &&
           a.l1_capacity == b.l1_capacity &&
           a.l1_conflict == b.l1_conflict &&
           a.l2_compulsory == b.l2_compulsory &&
           a.l2_capacity == b.l2_capacity && a.l2_conflict == b.l2_conflict;
}

int
runSweep(const CommandLine &cli, const std::string &dir, bool trace)
{
    const std::string name = cli.getString("workload", "village");
    const bool classes = cli.has("miss-classes");
    const bool mrc = cli.has("mrc");
    DriverConfig cfg;
    cfg.frames = static_cast<int>(cli.getInt("frames", 48));
    const std::vector<Candidate> cands =
        sweepCandidates(cli.getString("sweep", ""), classes);

    // Traced run only: the command's own work first, in a fresh
    // process like the CLI's, leg by leg through MultiConfigRunner as
    // cache_explorer --jobs 1 runs it; timed only at leg boundaries.
    LayerSums legs;
    double run_s = 0;
    double traced_s = 0;
    std::vector<CacheFrameStats> fused;
    int failed_legs = 0;
    const Clock::time_point traced0 = Clock::now();
    for (size_t i = 0; trace && i < cands.size(); ++i) {
        Workload leg_wl = timedBuild(name, legs);
        const Clock::time_point t0 = Clock::now();
        MultiConfigRunner runner(leg_wl, cfg);
        CacheSim &sim = runner.addSim(cands[i].config, cands[i].label);
        std::unique_ptr<ReuseProfiler> prof;
        if (i == 0 && mrc)
            prof = attachProfiler(sim, cfg.width, cfg.height);
        const RunManifest m = runner.runSupervised(ResilienceConfig{});
        run_s += secondsSince(t0);
        if (m.outcome != RunOutcome::Completed || m.quarantinedCount())
            ++failed_legs;
        fused.push_back(sim.totals());
        traced_s = secondsSince(traced0);
    }

    // Render once, replay into every configuration: the reference.
    LayerSums ls;
    Workload wl = timedBuild(name, ls);
    std::vector<TimedSim> cmd;
    std::vector<CacheSimConfig> configs;
    for (const Candidate &c : cands) {
        cmd.push_back({std::make_unique<CacheSim>(*wl.textures, c.config,
                                                  c.label),
                       nullptr});
        configs.push_back(c.config);
    }
    if (mrc)
        cmd.front().profiler =
            attachProfiler(*cmd.front().sim, cfg.width, cfg.height);
    std::unique_ptr<SplitSims> split;
    if (trace)
        split = std::make_unique<SplitSims>(*wl.textures, configs, cfg.width,
                                            cfg.height);

    Rasterizer raster(cfg.width, cfg.height);
    raster.setFilter(cfg.filter);
    const float aspect =
        static_cast<float>(cfg.width) / static_cast<float>(cfg.height);
    CaptureSink capture;
    for (int f = 0; f < cfg.frames; ++f) {
        renderTimed(raster, wl, wl.cameraAtFrame(f, cfg.frames, aspect),
                    capture, ls, trace);
        for (TimedSim &s : cmd)
            s.consume(capture);
        if (split)
            split->consume(capture);
    }
    capture.clear();

    std::ofstream(dir + "/sweep.txt") << sweepTables(cmd, cfg.frames, classes);
    double texels = 0;
    for (const TimedSim &s : cmd)
        texels += static_cast<double>(s.sim->totals().accesses);
    writeSummary(dir, texels, cands.size() * static_cast<uint64_t>(cfg.frames));
    if (!trace)
        return 0;
    int mismatches = failed_legs;
    for (size_t i = 0; i < cands.size(); ++i)
        if (!sameTotals(fused[i], cmd[i].sim->totals()))
            ++mismatches;

    // What the command's work costs by layer: every leg builds its own
    // workload, rasterizes every frame (the NullSink time: the fused
    // path hands its spans straight to the simulator, so no capture
    // copy) and feeds its configuration.
    double cmd_core_s = 0;
    for (const TimedSim &s : cmd)
        cmd_core_s += s.seconds;
    const double raster_s = static_cast<double>(cands.size()) * ls.null_s;

    LayerReport rep;
    ls.builds.insert(ls.builds.end(), legs.builds.begin(), legs.builds.end());
    reportSplit(rep, ls, split->result());
    rep.set("sim.stream_overhead_s", run_s - raster_s - cmd_core_s);
    rep.set("attr.build_s", legs.build_s);
    rep.set("attr.raster_s", raster_s);
    rep.set("attr.core_s", cmd_core_s);
    rep.set("attr.implied_s", legs.build_s + raster_s + cmd_core_s);
    rep.set("attr.traced_s", traced_s);
    rep.set("check.mismatches", mismatches);
    rep.write(dir + "/layers.json");
    return 0;
}

// ------------------------------------------------------------ streams

/** The subset of cache_explorer's multi-stream flags used here. */
MultiStreamConfig
streamsFromCli(const CommandLine &cli)
{
    MultiStreamConfig ms;
    ms.share = parseL2SharePolicy(cli.getString("l2-policy", "shared").c_str());
    ms.rounds = static_cast<uint32_t>(cli.getUnsigned("rounds", 16));
    ms.jobs = static_cast<unsigned>(cli.getUnsigned("jobs", 1));
    const unsigned long streams = cli.getUnsigned("streams", 1);
    const std::string list = cli.getString("stream-workloads", "village");
    std::vector<std::string> names;
    for (size_t start = 0;;) {
        const size_t comma = list.find(',', start);
        names.push_back(list.substr(start, comma - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (names.size() != streams)
        throw Exception(ErrorCode::BadArgument,
                        "--stream-workloads: expected one name per stream");
    for (unsigned long i = 0; i < streams; ++i) {
        StreamSpec spec;
        spec.workload = names[i];
        spec.filter =
            (i % 2 == 0) ? FilterMode::Bilinear : FilterMode::Trilinear;
        spec.phase = static_cast<uint32_t>(i * 7);
        spec.seed = i;
        ms.streams.push_back(std::move(spec));
    }
    return ms;
}

int
runStreams(const CommandLine &cli, const std::string &dir, bool trace)
{
    MultiStreamConfig ms = streamsFromCli(cli);

    // Traced run only: the command's own work first, in a fresh
    // process like the CLI's: construct (builds every stream's
    // workload) and run with the command's recording jobs.
    std::vector<CacheFrameStats> parallel;
    double construct_s = 0, traced_s = 0;
    int mismatches = 0;
    if (trace) {
        const Clock::time_point t0 = Clock::now();
        MultiStreamRunner runner(ms);
        construct_s = secondsSince(t0);
        const MultiStreamManifest pm = runner.run(ResilienceConfig{});
        traced_s = secondsSince(t0);
        mismatches += pm.outcome == RunOutcome::Completed ? 0 : 1;
        for (uint32_t i = 0; i < runner.streamCount(); ++i)
            parallel.push_back(runner.sim(i).totals());
    }

    // Serial recording: the reference for the command's --jobs J CSVs.
    ms.jobs = 1;
    MultiStreamRunner serial(ms);
    const Clock::time_point t0 = Clock::now();
    const MultiStreamManifest sm = serial.run(ResilienceConfig{});
    const double serial_run_s = secondsSince(t0);
    double texels = 0;
    uint64_t ops = 0;
    for (uint32_t i = 0; i < serial.streamCount(); ++i) {
        serial.writeStreamCsv(i, dir + "/ref.stream" + std::to_string(i) +
                                     ".csv");
        texels += static_cast<double>(serial.sim(i).totals().accesses);
        ops += serial.rows(i).size();
    }
    writeSummary(dir, texels, ops);
    if (!trace)
        return sm.outcome == RunOutcome::Completed ? 0 : 2;
    for (uint32_t i = 0; i < serial.streamCount(); ++i)
        if (!sameTotals(parallel[i], serial.sim(i).totals()))
            ++mismatches;

    // Every stream's rounds, rendered and replayed stream by stream into
    // a private two-level simulator of the runner's L1/L2 sizes (the
    // runner shares one L2 among the streams).
    LayerSums ls;
    SplitResult sr;
    const float aspect =
        static_cast<float>(ms.width) / static_cast<float>(ms.height);
    CaptureSink capture;
    for (const StreamSpec &spec : ms.streams) {
        Workload wl = timedBuild(spec.workload, ls);
        SplitSims split(*wl.textures,
                        {CacheSimConfig::twoLevel(ms.l1_bytes, ms.l2_bytes,
                                                  ms.l2_tile, ms.l1_tile)},
                        ms.width, ms.height);
        Rasterizer raster(ms.width, ms.height);
        raster.setFilter(spec.filter);
        for (uint32_t r = 0; r < ms.rounds; ++r) {
            const int frame =
                static_cast<int>(r + spec.phase) % wl.default_frames;
            renderTimed(raster, wl,
                        wl.cameraAtFrame(frame, wl.default_frames, aspect),
                        capture, ls, true);
            split.consume(capture);
        }
        sr.add(split.result());
    }
    capture.clear();

    LayerReport rep;
    reportSplit(rep, ls, sr);
    const double emit_s = ls.capture_s - ls.null_s;
    rep.set("sim.stream_overhead_s",
            serial_run_s - ls.null_s - emit_s - sr.plain_s);
    rep.set("attr.build_s", construct_s);
    rep.set("attr.raster_s", ls.null_s);
    rep.set("attr.emit_s", emit_s);
    rep.set("attr.core_s", sr.plain_s);
    rep.set("attr.implied_s", construct_s + ls.null_s + emit_s + sr.plain_s);
    rep.set("attr.traced_s", traced_s);
    rep.set("check.mismatches", mismatches);
    rep.write(dir + "/layers.json");
    return sm.outcome == RunOutcome::Completed ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const CommandLine cli(argc, argv);
    try {
        const std::string mode = cli.getString("mode", "reference");
        const std::string dir = cli.getString("out", "");
        if ((mode != "reference" && mode != "trace") || dir.empty())
            throw Exception(ErrorCode::BadArgument,
                            "usage: perfbench_trace --mode reference|trace "
                            "--out DIR <command flags>");
        const bool trace = mode == "trace";
        return cli.has("streams") ? runStreams(cli, dir, trace)
                                  : runSweep(cli, dir, trace);
    } catch (const Exception &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
