#include "interconnect/link.hh"

namespace fusion::interconnect
{

Link::Link(SimContext &ctx, const LinkParams &p)
    : _ctx(ctx), _p(p), _pjPerByte(energy::linkPjPerByte(p.cls))
{
    if (!_p.ctrlComponent.empty())
        _ecCtrl = ctx.energy.component(_p.ctrlComponent);
    if (!_p.dataComponent.empty())
        _ecData = ctx.energy.component(_p.dataComponent);
    ctx.stats.counters("links." + p.name, {{"ctrl_msgs", _ctrlMsgs},
                                           {"data_msgs", _dataMsgs},
                                           {"flits", _flits},
                                           {"bytes", _bytes}});

    _live = ctx.obs.live();
    _tracer = ctx.obs.tracer();
    if (_tracer)
        _track = _tracer->registerTrack("link." + p.name);
    ctx.obs.registerGauge("link." + p.name + ".in_flight",
                          [this] { return static_cast<double>(_inFlight); });
    ctx.obs.registerCounter("link." + p.name + ".flits",
                            [this] { return static_cast<double>(_flits); });

    _tracked = ctx.guard.config().anyEnabled();

    // Flit conservation: total flits booked must be explainable by
    // the message counts (Word and Data payloads are folded into
    // _dataMsgs, so the data side is a band, not an equality).
    ctx.guard.registerInvariant(
        "link." + p.name,
        [this](const guard::InvariantContext &,
               std::vector<std::string> &out) {
            std::uint64_t ctrl =
                _ctrlMsgs * messageFlits(MsgClass::Control);
            std::uint64_t lo =
                ctrl + _dataMsgs * messageFlits(MsgClass::Word);
            std::uint64_t hi =
                ctrl + _dataMsgs * messageFlits(MsgClass::Data);
            if (_flits < lo || _flits > hi) {
                out.push_back(
                    "flit count " + std::to_string(_flits) +
                    " outside conservation band [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "]");
            }
        });

    // Delivery conservation: every delivery routed through the link
    // must have fired by the time the event queue drains. Catches a
    // dropped message even when the run still completes (redundant
    // traffic), which would otherwise be a silent divergence.
    ctx.guard.registerInvariant(
        "link." + p.name + ".delivery",
        [this](const guard::InvariantContext &ictx,
               std::vector<std::string> &out) {
            if (!ictx.atEnd)
                return;
            if (_delivered != _sentDeliveries) {
                out.push_back(
                    "deliveries lost: sent " +
                    std::to_string(_sentDeliveries) +
                    ", delivered " + std::to_string(_delivered));
            }
        });
}

bool
Link::admit(Cycles &latency)
{
    ++_sentDeliveries;
    if (_ctx.guard.fireFault(guard::FaultKind::DropFlit))
        return false; // booked, counted as sent, never delivered
    if (_ctx.guard.fireFault(guard::FaultKind::ReorderFlit))
        latency += _ctx.guard.faultDelay();
    if (_live)
        ++_inFlight;
    return true;
}

void
Link::book(MsgClass cls)
{
    std::uint64_t bytes = messageBytes(cls);
    std::uint64_t flits = messageFlits(cls);
    if (_tracked &&
        _ctx.guard.fireFault(guard::FaultKind::DupFlit)) {
        // Wire-level retransmission of one message: extra flits and
        // bytes with no matching message count, which pushes _flits
        // past the conservation band the invariant above checks.
        bytes += messageBytes(cls);
        flits += messageFlits(cls);
    }
    _bytes += bytes;
    _flits += flits;
    double pj = _pjPerByte * static_cast<double>(bytes);
    if (cls == MsgClass::Control) {
        ++_ctrlMsgs;
        if (_ecCtrl != energy::kInvalidComponent)
            _ctx.energy.add(_ecCtrl, pj);
    } else {
        // Word and full-line payloads both count as data traffic.
        ++_dataMsgs;
        if (_ecData != energy::kInvalidComponent)
            _ctx.energy.add(_ecData, pj);
    }
    if (_tracer) {
        // Senders that book() and schedule delivery themselves use
        // this same latency, so the span covers the real traversal.
        Tick now = _ctx.now();
        _tracer->complete(_track, obs::SpanKind::LinkMsg,
                          static_cast<Addr>(cls), now, now + _p.latency);
    }
}

} // namespace fusion::interconnect
