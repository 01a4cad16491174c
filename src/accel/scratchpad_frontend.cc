#include "accel/scratchpad_frontend.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fusion::accel
{

ScratchpadFrontend::ScratchpadFrontend(SimContext &ctx,
                                       mem::Scratchpad &spm)
    : _ctx(ctx), _spm(spm)
{
}

void
ScratchpadFrontend::access(Addr va, std::uint32_t size,
                           bool is_write, PortDone done)
{
    (void)size;
    // The window's line lists are sorted.
    auto holds = [line = lineAlign(va)](const std::vector<Addr> &v) {
        return std::binary_search(v.begin(), v.end(), line);
    };
    fusion_assert(_window && (holds(_window->readLines) ||
                              holds(_window->dirtyLines)),
                  "scratchpad access outside resident window: va=",
                  va);
    Cycles lat = _spm.access(is_write);
    _ctx.eq.scheduleIn(lat, done);
}

} // namespace fusion::accel
