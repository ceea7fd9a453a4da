/**
 * @file
 * Drives a workload's scripted animation through the rasterizer frame by
 * frame, streaming texel accesses into an attached sink.
 */
#ifndef MLTC_SIM_ANIMATION_DRIVER_HPP
#define MLTC_SIM_ANIMATION_DRIVER_HPP

#include <functional>

#include "raster/rasterizer.hpp"
#include "workload/workload.hpp"

namespace mltc {

/** Animation run parameters. The paper renders at 1024x768. */
struct DriverConfig
{
    int width = 1024;
    int height = 768;
    FilterMode filter = FilterMode::Trilinear;
    int frames = 0; ///< 0 = the workload's default animation length
    bool z_prepass = false; ///< §6 future-work extension

    bool operator==(const DriverConfig &) const = default;
};

/** Called after each frame with the frame index and raster counters. */
using FrameCallback = std::function<void(int frame, const FrameStats &)>;

/** Called before each frame; return false to stop the run early. */
using FrameGate = std::function<bool(int frame)>;

/**
 * Render @p config.frames frames of @p workload, streaming accesses to
 * @p sink (may be null for a pure render).
 * @return aggregate raster stats summed over all frames.
 */
FrameStats runAnimation(const Workload &workload, const DriverConfig &config,
                        TexelAccessSink *sink,
                        const FrameCallback &per_frame = {});

/**
 * Like runAnimation() but starting at frame @p start_frame (each frame
 * is a pure function of its index, so a resumed run renders the exact
 * frames a straight run would) and consulting @p gate before each frame
 * for cooperative cancellation / watchdog stops.
 * @return aggregate raster stats over the frames actually rendered.
 */
FrameStats runAnimationRange(const Workload &workload,
                             const DriverConfig &config,
                             TexelAccessSink *sink, int start_frame,
                             const FrameCallback &per_frame = {},
                             const FrameGate &gate = {});

} // namespace mltc

#endif // MLTC_SIM_ANIMATION_DRIVER_HPP
