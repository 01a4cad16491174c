#include "accel/dma_engine.hh"

#include "sim/logging.hh"

namespace fusion::accel
{

DmaEngine::DmaEngine(SimContext &ctx, const DmaParams &p,
                     host::Llc &llc, interconnect::Link *dma_link,
                     const vm::PageTable &pt)
    : _ctx(ctx), _p(p), _llc(llc), _link(dma_link), _pt(pt)
{
    ctx.stats.counters("dma", {{"fill_ops", _fillOps},
                               {"drain_ops", _drainOps},
                               {"line_transfers", _lineTransfers}});
    _stChunkLatency =
        &ctx.stats.histogram("dma.chunk_latency", 0, 1024, 32);

    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack("dma");
    ctx.obs.registerGauge("dma.outstanding", [this] {
        return static_cast<double>(_outstanding);
    });
    ctx.obs.registerCounter("dma.line_transfers", [this] {
        return static_cast<double>(_lineTransfers);
    });

    ctx.guard.registerSnapshot("dma", [this] {
        guard::ComponentState s;
        s.outstanding = _outstanding;
        if (_state != DmaState::Idle) {
            s.detail = std::string(_state == DmaState::Fill
                                       ? "fill"
                                       : "drain") +
                       " pos=" + std::to_string(_pos) + "/" +
                       std::to_string(_lines ? _lines->size() : 0);
        }
        return s;
    });
    ctx.guard.registerInvariant(
        "dma", [this](const guard::InvariantContext &ic,
                      std::vector<std::string> &out) {
            if (!ic.atEnd)
                return;
            if (_state != DmaState::Idle)
                out.push_back("engine not idle at end-of-sim");
            if (_outstanding != 0) {
                out.push_back(
                    std::to_string(_outstanding) +
                    " transfer(s) outstanding at end-of-sim");
            }
            // Line conservation: every line handed to fill()/drain()
            // must have been transferred. Catches a truncated DMA op
            // even when the run completes cleanly, which would
            // otherwise be a silent divergence.
            if (_lineTransfers != _linesPlanned) {
                out.push_back(
                    "line transfers " +
                    std::to_string(_lineTransfers) +
                    " != planned " + std::to_string(_linesPlanned));
            }
        });
}

void
DmaEngine::fill(const std::vector<Addr> &vlines, Pid pid,
                mem::Scratchpad &spm, sim::SmallFn<void()> done)
{
    fusion_assert(_state == DmaState::Idle, "DMA engine busy");
    _state = DmaState::Fill;
    _lines = &vlines;
    _pid = pid;
    _spm = &spm;
    _pos = 0;
    _outstanding = 0;
    _done = std::move(done);
    _linesPlanned += vlines.size();
    ++_fillOps;
    // Whole-operation span, keyed by the op ordinal (ops are
    // serialized, so the key only needs to be unique vs chunk keys).
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Dma,
                       static_cast<Addr>(dmaOps()), _ctx.now());
    pump();
}

void
DmaEngine::drain(const std::vector<Addr> &vlines, Pid pid,
                 mem::Scratchpad &spm, sim::SmallFn<void()> done)
{
    fusion_assert(_state == DmaState::Idle, "DMA engine busy");
    _state = DmaState::Drain;
    _lines = &vlines;
    _pid = pid;
    _spm = &spm;
    _pos = 0;
    _outstanding = 0;
    _done = std::move(done);
    _linesPlanned += vlines.size();
    ++_drainOps;
    if (_tracer)
        _tracer->begin(_track, obs::SpanKind::Dma,
                       static_cast<Addr>(dmaOps()), _ctx.now());
    pump();
}

void
DmaEngine::pump()
{
    while (_pos < _lines->size() &&
           _outstanding < _p.maxOutstanding) {
        if (_ctx.guard.fireFault(guard::FaultKind::TruncateDma)) {
            // Silently abandon the rest of the op; in-flight lines
            // still complete, then the op reports done. Detected by
            // the line-conservation invariant at end-of-sim.
            _pos = _lines->size();
            break;
        }
        Addr vline = (*_lines)[_pos];
        Addr pline = lineAlign(_pt.translate(_pid, vline));
        ++_pos;
        ++_outstanding;
        ++_lineTransfers;
        bool is_drain = (_state == DmaState::Drain);
        // Scratchpad side of the transfer.
        _spm->dmaLineAccess(!is_drain);
        Tick t0 = _ctx.now();
        if (_tracer)
            _tracer->begin(_track, obs::SpanKind::Dma, pline, t0);
        auto completion = [this, pline, t0] {
            --_outstanding;
            _stChunkLatency->sample(
                static_cast<double>(_ctx.now() - t0));
            if (_tracer)
                _tracer->end(_track, obs::SpanKind::Dma, pline,
                             _ctx.now());
            _ctx.guard.noteProgress();
            pump();
        };
        if (_ctx.guard.fireFault(guard::FaultKind::StallDma)) {
            // One line's completion stalls by the fault delay; the
            // transfer itself is not lost, so a clean run only
            // shifts in time (timing-only fault kind).
            Cycles stall = _ctx.guard.faultDelay();
            auto stalled = [this, stall, completion] {
                _ctx.eq.scheduleIn(stall, completion);
            };
            if (is_drain) {
                _llc.dmaWrite(pline, _link, stalled);
            } else {
                _llc.dmaRead(pline, _link, stalled);
            }
        } else if (is_drain) {
            _llc.dmaWrite(pline, _link, completion);
        } else {
            _llc.dmaRead(pline, _link, completion);
        }
    }
    if (_pos >= _lines->size() && _outstanding == 0 &&
        _state != DmaState::Idle) {
        _state = DmaState::Idle;
        if (_tracer)
            _tracer->end(_track, obs::SpanKind::Dma,
                         static_cast<Addr>(dmaOps()), _ctx.now());
        auto done = std::move(_done); // move empties _done
        done();
    }
}

} // namespace fusion::accel
