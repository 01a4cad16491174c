#include "mem/dram.hh"

#include "energy/energy_ledger.hh"
#include "sim/logging.hh"

namespace fusion::mem
{

Dram::Dram(SimContext &ctx, const DramParams &p)
    : _ctx(ctx), _p(p), _channels(p.channels)
{
    fusion_assert(p.channels > 0, "DRAM needs at least one channel");
    _ecDram = ctx.energy.component(energy::comp::kDram);
    ctx.stats.counters("dram", {{"queued", _queued},
                                {"accesses", _accesses},
                                {"row_hits", _rowHits}});

    ctx.obs.registerGauge("dram.busy_channels", [this] {
        std::size_t busy = 0;
        for (const Channel &c : _channels)
            if (c.busy)
                ++busy;
        return static_cast<double>(busy);
    });
    ctx.obs.registerGauge("dram.queued", [this] {
        std::size_t queued = 0;
        for (const Channel &c : _channels)
            queued += c.queued;
        return static_cast<double>(queued);
    });
    ctx.obs.registerCounter("dram.accesses", [this] {
        return static_cast<double>(_accesses);
    });

    ctx.guard.registerSnapshot("dram", [this] {
        guard::ComponentState s;
        std::uint64_t queued = 0, busy = 0;
        for (const Channel &c : _channels) {
            queued += c.queued;
            if (c.busy)
                ++busy;
        }
        s.outstanding = queued + busy;
        if (s.outstanding != 0) {
            s.detail = "queued=" + std::to_string(queued) +
                       " busy_channels=" + std::to_string(busy);
        }
        return s;
    });
}

void
Dram::access(Addr pa, bool is_write, DramCallback done)
{
    auto ch = static_cast<std::uint32_t>(lineNumber(pa) % _p.channels);
    Channel &c = _channels[ch];
    // Admission control: a full command queue delays acceptance; we
    // model that by simply queueing (the queue in a trace-driven
    // replay is naturally bounded by requester MLP).
    (void)is_write;
    c.push(pa, std::move(done));
    ++_queued;
    if (!c.busy)
        serviceNext(ch);
}

void
Dram::serviceNext(std::uint32_t ch)
{
    Channel &c = _channels[ch];
    if (c.queued == 0) {
        c.busy = false;
        return;
    }
    c.busy = true;
    auto [pa, done] = c.pop();

    Addr row = pa / _p.rowBytes;
    bool hit = (row == c.openRow);
    c.openRow = row;
    Cycles lat = hit ? _p.rowHitLatency : _p.rowMissLatency;

    ++_accesses;
    _rowHits += hit ? 1 : 0;
    _ctx.energy.add(_ecDram, _p.accessPj);

    // Data burst occupies the channel; completion fires after the
    // full access latency.
    _ctx.eq.scheduleIn(lat, std::move(done));
    _ctx.eq.scheduleIn(_p.burstCycles,
                       [this, ch] { serviceNext(ch); });
}

void
Dram::Channel::push(Addr pa, DramCallback done)
{
    if (queued == ring.size()) {
        std::vector<Command> grown(ring.empty() ? 4 : 2 * ring.size());
        for (std::size_t i = 0; i < queued; ++i)
            grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
        ring = std::move(grown);
        head = 0;
    }
    Command &slot = ring[(head + queued) & (ring.size() - 1)];
    slot.pa = pa;
    slot.done = std::move(done);
    ++queued;
}

Dram::Command
Dram::Channel::pop()
{
    Command c = std::move(ring[head]);
    head = (head + 1) & (ring.size() - 1);
    --queued;
    return c;
}

} // namespace fusion::mem
