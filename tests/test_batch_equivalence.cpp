/**
 * @file
 * Differential harness for the batched access path
 * (docs/batched_access.md): the batched and scalar pipelines must be
 * *byte-identical* — every CacheFrameStats counter, every snapshot
 * payload byte — over real workloads (Village, City), a synthetic L2
 * thrasher, every filter mode, fault injection, 3C classification and
 * TLB modelling; plus property/fuzz coverage of accessBatch() itself
 * (empty spans, length-1 spans, non-SIMD-width tails, MIP/texture
 * boundaries inside one span, duplicate texels against the coalescing
 * filter).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cache_sim.hpp"
#include "raster/rasterizer.hpp"
#include "util/rng.hpp"
#include "util/serializer.hpp"
#include "workload/city.hpp"
#include "workload/village.hpp"

namespace mltc {
namespace {

/** Restores the process-wide batching toggle on scope exit. */
struct BatchToggleGuard
{
    bool saved = batchedAccess();
    ~BatchToggleGuard() { setBatchedAccess(saved); }
};

/** Complete simulator state as bytes — the strongest equality there is. */
std::vector<uint8_t>
snapshotBytes(const CacheSim &sim)
{
    SnapshotWriter w("unused-never-finished");
    sim.save(w);
    return w.payload();
}

/** Every field of CacheFrameStats, not just the headline counters. */
void
expectStatsEqual(const CacheFrameStats &a, const CacheFrameStats &b,
                 const std::string &ctx)
{
    EXPECT_EQ(a.accesses, b.accesses) << ctx;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << ctx;
    EXPECT_EQ(a.l2_full_hits, b.l2_full_hits) << ctx;
    EXPECT_EQ(a.l2_partial_hits, b.l2_partial_hits) << ctx;
    EXPECT_EQ(a.l2_full_misses, b.l2_full_misses) << ctx;
    EXPECT_EQ(a.host_bytes, b.host_bytes) << ctx;
    EXPECT_EQ(a.l2_read_bytes, b.l2_read_bytes) << ctx;
    EXPECT_EQ(a.tlb_probes, b.tlb_probes) << ctx;
    EXPECT_EQ(a.tlb_hits, b.tlb_hits) << ctx;
    EXPECT_EQ(a.victim_steps_max, b.victim_steps_max) << ctx;
    EXPECT_EQ(a.host_retries, b.host_retries) << ctx;
    EXPECT_EQ(a.host_failures, b.host_failures) << ctx;
    EXPECT_EQ(a.degraded_accesses, b.degraded_accesses) << ctx;
    EXPECT_EQ(a.degraded_mip_bias, b.degraded_mip_bias) << ctx;
    EXPECT_EQ(a.l1_compulsory, b.l1_compulsory) << ctx;
    EXPECT_EQ(a.l1_capacity, b.l1_capacity) << ctx;
    EXPECT_EQ(a.l1_conflict, b.l1_conflict) << ctx;
    EXPECT_EQ(a.l2_compulsory, b.l2_compulsory) << ctx;
    EXPECT_EQ(a.l2_capacity, b.l2_capacity) << ctx;
    EXPECT_EQ(a.l2_conflict, b.l2_conflict) << ctx;
}

Workload
tinyVillage()
{
    VillageParams p;
    p.houses = 4;
    p.trees = 2;
    p.extent = 80.0f;
    p.ground_texture_size = 64;
    p.wall_texture_size = 64;
    return buildVillage(p);
}

Workload
tinyCity()
{
    CityParams p;
    p.blocks_x = 3;
    p.blocks_z = 3;
    p.facade_texture_size = 64;
    p.large_facades = 1;
    return buildCity(p);
}

HostPathConfig
faultyHost()
{
    HostPathConfig host;
    host.fault_injection = true;
    host.faults.seed = 1234;
    host.faults.drop_rate = 0.15;
    host.faults.corrupt_rate = 0.08;
    host.faults.spike_rate = 0.05;
    host.faults.burst_period = 200;
    host.faults.burst_length = 20;
    return host;
}

/**
 * The rendering differential: the same workload rendered twice through
 * the full rasterizer → sampler → CacheSim pipeline, once batched and
 * once scalar, must produce identical per-frame stats and an identical
 * end-state snapshot.
 */
void
checkRenderDifferential(Workload (*build)(), FilterMode filter,
                        const CacheSimConfig &cfg, int frames,
                        const std::string &ctx)
{
    BatchToggleGuard guard;
    std::vector<CacheFrameStats> rows[2];
    std::vector<uint8_t> snap[2];
    uint64_t texels[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        setBatchedAccess(mode == 1);
        Workload wl = build();
        CacheSim sim(*wl.textures, cfg, "diff");
        Rasterizer raster(96, 64);
        raster.setFilter(filter);
        raster.setSink(&sim);
        const float aspect = 96.0f / 64.0f;
        for (int f = 0; f < frames; ++f) {
            Camera cam = wl.cameraAtFrame(f, wl.default_frames, aspect);
            FrameStats fs = raster.renderFrame(wl.scene, cam, *wl.textures);
            texels[mode] += fs.texel_accesses;
            rows[mode].push_back(sim.endFrame());
        }
        snap[mode] = snapshotBytes(sim);
    }
    EXPECT_EQ(texels[0], texels[1]) << ctx;
    ASSERT_EQ(rows[0].size(), rows[1].size()) << ctx;
    for (size_t i = 0; i < rows[0].size(); ++i)
        expectStatsEqual(rows[0][i], rows[1][i],
                         ctx + " frame " + std::to_string(i));
    EXPECT_EQ(snap[0], snap[1]) << ctx << ": snapshot bytes diverge";
}

TEST(BatchRenderDifferential, VillageEveryFilterMode)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 256 << 10);
    for (FilterMode f : {FilterMode::Point, FilterMode::Bilinear,
                         FilterMode::Trilinear})
        checkRenderDifferential(tinyVillage, f, cfg, 3,
                                std::string("village-") + filterModeName(f));
}

TEST(BatchRenderDifferential, VillagePullArchitecture)
{
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear,
                            CacheSimConfig::pull(16 << 10), 3, "village-pull");
}

TEST(BatchRenderDifferential, VillageWithFaultInjection)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.host = faultyHost();
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-faults");
}

TEST(BatchRenderDifferential, VillageClassifiedWithTlb)
{
    // classify_misses attaches the hit-observing shadow models, forcing
    // the batched path onto its faithful replay branch — which must be
    // just as identical.
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 128 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    checkRenderDifferential(tinyVillage, FilterMode::Trilinear, cfg, 3,
                            "village-classified-tlb");
}

TEST(BatchRenderDifferential, CityTrilinear)
{
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 256 << 10);
    checkRenderDifferential(tinyCity, FilterMode::Trilinear, cfg, 3, "city");
}

/**
 * Direct-drive differential fixture: hand-built TexelRef streams pushed
 * through accessBatch() on one simulator and replayed scalar on a twin.
 */
class BatchSpanTest : public ::testing::Test
{
  protected:
    BatchSpanTest()
    {
        tex = tm.load("t", MipPyramid(Image(256, 256)));
        tex2 = tm.load("u", MipPyramid(Image(128, 128)));
    }

    /** Replay @p refs through the scalar entry points. */
    static void
    replayScalar(CacheSim &sim, const std::vector<TexelRef> &refs)
    {
        for (const TexelRef &r : refs) {
            switch (r.kind) {
              case TexelRef::kTexel:
                sim.access(r.x0, r.y0, r.mip);
                break;
              case TexelRef::kQuad:
                sim.accessQuad(r.x0, r.y0, r.x1, r.y1, r.mip);
                break;
              default:
                sim.beginPixel(r.x0, r.y0);
                break;
            }
        }
    }

    /**
     * Drive both sims with the same ref stream split into batches of
     * the given length and assert frame stats + snapshot equality.
     */
    void
    checkSpans(CacheSim &batched, CacheSim &scalar,
               const std::vector<TexelRef> &refs, size_t span_len,
               const std::string &ctx)
    {
        for (size_t i = 0; i < refs.size(); i += span_len) {
            const size_t n = std::min(span_len, refs.size() - i);
            const auto from = refs.begin() + static_cast<std::ptrdiff_t>(i);
            std::vector<TexelRef> span(from,
                                       from + static_cast<std::ptrdiff_t>(n));
            batched.accessBatch(span);
            replayScalar(scalar, span);
        }
        expectStatsEqual(batched.endFrame(), scalar.endFrame(), ctx);
        EXPECT_EQ(snapshotBytes(batched), snapshotBytes(scalar))
            << ctx << ": snapshot bytes diverge";
    }

    /** Random mixed-kind stream confined to the bound texture. */
    std::vector<TexelRef>
    randomRefs(int count, uint32_t dim_base, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<TexelRef> out;
        out.reserve(static_cast<size_t>(count));
        for (int i = 0; i < count; ++i) {
            const uint32_t mip = static_cast<uint32_t>(rng.below(3));
            const uint32_t dim = dim_base >> mip;
            const uint32_t x = static_cast<uint32_t>(rng.below(dim));
            const uint32_t y = static_cast<uint32_t>(rng.below(dim));
            if (rng.chance(0.25)) {
                out.push_back(TexelRef::quad(x, y, (x + 1) % dim,
                                             (y + 1) % dim, mip));
            } else if (rng.chance(0.05)) {
                out.push_back(TexelRef::pixel(x, y));
            } else {
                out.push_back(TexelRef::texel(x, y, mip));
            }
        }
        return out;
    }

    TextureManager tm;
    TextureId tex, tex2;
};

TEST_F(BatchSpanTest, EmptySpanIsANoOp)
{
    CacheSim sim(tm, CacheSimConfig::twoLevel(2 << 10, 64 << 10), "sim");
    sim.bindTexture(tex);
    const std::vector<uint8_t> before = snapshotBytes(sim);
    sim.accessBatch({});
    EXPECT_EQ(snapshotBytes(sim), before);
    const CacheFrameStats fs = sim.endFrame();
    EXPECT_EQ(fs.accesses, 0u);
    EXPECT_EQ(fs.l1_misses, 0u);
}

TEST_F(BatchSpanTest, EverySpanLengthTailMatchesScalar)
{
    // Lengths 1..67 cover the length-1 span, sub-chunk spans, and
    // non-multiple-of-SIMD-width tails of the 256-entry staging chunk.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    for (size_t len : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       size_t{16}, size_t{31}, size_t{67}, size_t{256},
                       size_t{300}}) {
        CacheSim batched(tm, cfg, "batched");
        CacheSim scalar(tm, cfg, "scalar");
        batched.bindTexture(tex);
        scalar.bindTexture(tex);
        checkSpans(batched, scalar, randomRefs(2000, 256, 7 + len), len,
                   "span-len-" + std::to_string(len));
    }
}

TEST_F(BatchSpanTest, SpansCrossingMipBoundaries)
{
    // Alternating MIP levels inside one span: the filter key must never
    // coalesce the same (x, y) across levels.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (uint32_t i = 0; i < 512; ++i)
        refs.push_back(TexelRef::texel(i & 63, (i >> 3) & 63, i % 3));
    checkSpans(batched, scalar, refs, 128, "mip-boundaries");
}

TEST_F(BatchSpanTest, TextureBindsBetweenSpans)
{
    // Batches never span a bind; interleaving binds between spans must
    // reset the coalescing filter identically on both paths.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    Rng rng(99);
    for (int round = 0; round < 20; ++round) {
        const TextureId tid = rng.chance(0.5) ? tex : tex2;
        batched.bindTexture(tid);
        scalar.bindTexture(tid);
        const uint32_t dim = tid == tex ? 256 : 128;
        const auto refs =
            randomRefs(100, dim, static_cast<uint64_t>(1000 + round));
        batched.accessBatch(refs);
        replayScalar(scalar, refs);
    }
    expectStatsEqual(batched.endFrame(), scalar.endFrame(), "binds");
    EXPECT_EQ(snapshotBytes(batched), snapshotBytes(scalar));
}

TEST_F(BatchSpanTest, DuplicateTexelsCoalesceIdentically)
{
    // The one-entry filter must treat a run of identical texels inside
    // one span exactly as it treats the scalar stream: one L1 probe.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (int i = 0; i < 50; ++i)
        refs.push_back(TexelRef::texel(5, 5, 0));
    // ...then a different tile and back: the filter must re-probe.
    refs.push_back(TexelRef::texel(200, 200, 0));
    for (int i = 0; i < 50; ++i)
        refs.push_back(TexelRef::texel(5, 5, 0));
    checkSpans(batched, scalar, refs, refs.size(), "duplicates");
}

TEST_F(BatchSpanTest, QuadsStraddlingTileBoundaries)
{
    // Quads whose corners straddle L1-tile edges expand to 1/2/4 probes
    // inside the batch loop; sweep every alignment phase.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 64 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (uint32_t y = 0; y < 64; ++y)
        for (uint32_t x = 0; x < 64; ++x)
            refs.push_back(
                TexelRef::quad(x, y, (x + 1) & 255, (y + 1) & 255, 0));
    checkSpans(batched, scalar, refs, 97, "quad-tiles");
}

TEST_F(BatchSpanTest, FaultInjectionTakesTheSameSlowPath)
{
    // The miss path (fault RNG draws included) is shared code; the
    // batched filter must present it the identical miss sequence so the
    // RNG streams stay aligned.
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.host = faultyHost();
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    checkSpans(batched, scalar, randomRefs(5000, 256, 41), 113, "faults");
}

TEST_F(BatchSpanTest, ClassifiedSimsMatchThroughReplayBranch)
{
    CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    cfg.classify_misses = true;
    cfg.tlb_entries = 8;
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    checkSpans(batched, scalar, randomRefs(5000, 256, 43), 77, "classified");
}

TEST_F(BatchSpanTest, ThrasherSweepMatchesScalar)
{
    // Linear sweep over twice the L2's block count — the multi-stream
    // thrasher's access pattern — maximal eviction churn on both paths.
    const CacheSimConfig cfg = CacheSimConfig::twoLevel(2 << 10, 32 << 10);
    CacheSim batched(tm, cfg, "batched");
    CacheSim scalar(tm, cfg, "scalar");
    batched.bindTexture(tex);
    scalar.bindTexture(tex);
    std::vector<TexelRef> refs;
    for (int round = 0; round < 4; ++round)
        for (uint32_t y = 0; y < 256; y += 16)
            for (uint32_t x = 0; x < 256; x += 16)
                refs.push_back(TexelRef::texel(x, y, 0));
    checkSpans(batched, scalar, refs, 256, "thrasher");
}

TEST_F(BatchSpanTest, FuzzRandomSpansAndLengths)
{
    // Seeded fuzz: random streams chopped at random span lengths,
    // including empties, against the scalar twin. Any divergence fails
    // with the seed in the message.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const CacheSimConfig cfg =
            CacheSimConfig::twoLevel(2 << 10, 64 << 10);
        CacheSim batched(tm, cfg, "batched");
        CacheSim scalar(tm, cfg, "scalar");
        batched.bindTexture(tex);
        scalar.bindTexture(tex);
        Rng rng(seed * 7919);
        const auto refs = randomRefs(3000, 256, seed);
        size_t i = 0;
        while (i < refs.size()) {
            const size_t len =
                std::min(rng.below(70), // 0 = empty span, also valid
                         static_cast<uint64_t>(refs.size() - i));
            std::vector<TexelRef> span(refs.begin() + static_cast<long>(i),
                                       refs.begin() +
                                           static_cast<long>(i + len));
            batched.accessBatch(span);
            replayScalar(scalar, span);
            i += len == 0 ? 1 : len; // re-align after an empty span
            if (len == 0 && i <= refs.size()) {
                // Deliver the skipped ref scalar-side on both sims so
                // the streams stay identical.
                std::vector<TexelRef> one(refs.begin() +
                                              static_cast<long>(i - 1),
                                          refs.begin() +
                                              static_cast<long>(i));
                batched.accessBatch(one);
                replayScalar(scalar, one);
            }
        }
        expectStatsEqual(batched.endFrame(), scalar.endFrame(),
                         "fuzz-seed-" + std::to_string(seed));
        EXPECT_EQ(snapshotBytes(batched), snapshotBytes(scalar))
            << "fuzz-seed-" << seed;
    }
}

TEST(BatchSinkDefaults, CountingSinkCountsBatchedRefs)
{
    CountingSink sink;
    std::vector<TexelRef> refs;
    refs.push_back(TexelRef::texel(1, 2, 0));
    refs.push_back(TexelRef::quad(1, 2, 3, 4, 1));
    refs.push_back(TexelRef::pixel(9, 9));
    sink.accessBatch(refs);
    EXPECT_EQ(sink.count, 5u); // 1 texel + 4 quad corners, pixel ignored
}

TEST(BatchSinkDefaults, ToggleRoundTrips)
{
    BatchToggleGuard guard;
    setBatchedAccess(false);
    EXPECT_FALSE(batchedAccess());
    setBatchedAccess(true);
    EXPECT_TRUE(batchedAccess());
}

} // namespace
} // namespace mltc
