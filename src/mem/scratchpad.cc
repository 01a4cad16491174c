#include "mem/scratchpad.hh"

#include "energy/energy_ledger.hh"

namespace fusion::mem
{

Scratchpad::Scratchpad(SimContext &ctx, std::uint64_t capacity_bytes,
                       const std::string &name)
    : _ctx(ctx), _capacity(capacity_bytes)
{
    energy::SramParams p;
    p.capacityBytes = capacity_bytes;
    p.kind = energy::SramKind::ScratchpadRam;
    p.banks = 1;
    _fig = energy::evaluateSram(p);
    // Accelerator-side accesses are word-granularity (8B of the 64B
    // row): scale the line-read energy down accordingly, with a
    // floor for decode/wordline costs.
    _wordAccessPj = _fig.readPj * 0.35;
    _ecSpm = ctx.energy.component(energy::comp::kScratchpad);
    ctx.stats.counters(name, {{"reads", _reads},
                              {"writes", _writes},
                              {"dma_line_xfers", _dmaLineXfers}});
}

void
Scratchpad::access(bool is_write)
{
    ++(is_write ? _writes : _reads);
    _ctx.energy.add(_ecSpm, _wordAccessPj);
}

void
Scratchpad::dmaLineAccess(bool is_write)
{
    ++_dmaLineXfers;
    _ctx.energy.add(_ecSpm,
                    is_write ? _fig.writePj : _fig.readPj);
}

} // namespace fusion::mem
