#include "accel/scratchpad_frontend.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fusion::accel
{

ScratchpadFrontend::ScratchpadFrontend(SimContext &ctx,
                                       mem::Scratchpad &spm)
    : SplitPort(ctx.eq), _spm(spm)
{
}

void
ScratchpadFrontend::begin(Addr va, bool is_write)
{
    // The window's line lists are sorted.
    auto holds = [line = lineAlign(va)](const std::vector<Addr> &v) {
        return std::binary_search(v.begin(), v.end(), line);
    };
    fusion_assert(_window && (holds(_window->readLines) ||
                              holds(_window->dirtyLines)),
                  "scratchpad access outside resident window: va=",
                  va);
    _spm.access(is_write);
}

} // namespace fusion::accel
