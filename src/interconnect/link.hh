/**
 * @file
 * A point-to-point on-chip link with latency, per-byte energy, and
 * flit/message accounting.
 *
 * Each link books its energy against *two* ledger components (one
 * for control traffic, one for data traffic) so that the Figure 6c
 * message-vs-data breakdowns fall directly out of the ledger.
 */

#ifndef FUSION_INTERCONNECT_LINK_HH
#define FUSION_INTERCONNECT_LINK_HH

#include <string>

#include "energy/link_energy.hh"
#include "interconnect/message.hh"
#include "obs/span_tracer.hh"
#include "sim/sim_context.hh"

namespace fusion::interconnect
{

/** Construction parameters for one link. */
struct LinkParams
{
    std::string name = "link";       ///< stats path: links.<name>.*
    energy::LinkClass cls = energy::LinkClass::AxcToL1x;
    Cycles latency = 1;              ///< traversal latency
    std::string ctrlComponent;       ///< ledger name for control
    std::string dataComponent;       ///< ledger name for data
};

/** Point-to-point link model. */
class Link
{
  public:
    Link(SimContext &ctx, const LinkParams &p);

    /**
     * Route one message's delivery through the link: books the
     * traffic and schedules @p deliver after @p latency cycles
     * (which may exceed the raw link latency when the caller folds
     * downstream path segments into one hop). In an unguarded,
     * untraced run this is exactly book() + scheduleIn with the
     * caller's closure constructed in place; with the guard layer
     * armed the delivery is counted against the conservation
     * invariant and subject to the link fault hooks
     * (DropFlit / ReorderFlit), and the event wraps the caller's
     * closure in place with that bookkeeping.
     */
    template <typename F>
    void
    send(MsgClass cls, Cycles latency, F &&deliver)
    {
        book(cls);
        if (!_live && !_tracked) [[likely]] {
            _ctx.eq.scheduleIn(latency, std::forward<F>(deliver));
            return;
        }
        if (!admit(latency))
            return;
        _ctx.eq.scheduleIn(
            latency,
            [this, deliver = std::forward<F>(deliver)]() mutable {
                if (_live)
                    --_inFlight;
                ++_delivered;
                deliver();
            });
    }

    /** Book traffic without scheduling (bulk accounting paths). */
    void book(MsgClass cls);

    Cycles latency() const { return _p.latency; }

    std::uint64_t controlMessages() const { return _ctrlMsgs; }
    std::uint64_t dataMessages() const { return _dataMsgs; }
    std::uint64_t totalFlits() const { return _flits; }
    std::uint64_t totalBytes() const { return _bytes; }

  private:
    /**
     * Guarded/traced send: count the delivery and run the link fault
     * hooks. @return false when the message is dropped; a reorder
     * adds to @p latency.
     */
    bool admit(Cycles &latency);

    SimContext &_ctx;
    LinkParams _p;
    double _pjPerByte;
    // Ledger ids resolved once; kInvalidComponent when the param's
    // component name is empty (unbooked link).
    energy::ComponentId _ecCtrl = energy::kInvalidComponent;
    energy::ComponentId _ecData = energy::kInvalidComponent;
    // Counters, bound into ctx.stats under "links.<name>.<stat>".
    std::uint64_t _ctrlMsgs = 0;
    std::uint64_t _dataMsgs = 0;
    std::uint64_t _flits = 0;
    std::uint64_t _bytes = 0;
    /// Telemetry (null when tracing is off). Each book() records a
    /// link_msg span of exactly the link latency — booking and
    /// delivery scheduling use the same latency on every send path.
    obs::SpanTracer *_tracer = nullptr;
    std::uint32_t _track = 0;
    /// Messages booked but not yet delivered; only maintained when
    /// telemetry is live (the in_flight gauge).
    std::int64_t _inFlight = 0;
    bool _live = false;
    /// True when the guard layer is armed: deliveries are counted so
    /// the end-of-sim conservation invariant can see a dropped one,
    /// and the link fault hooks are reachable.
    bool _tracked = false;
    std::uint64_t _sentDeliveries = 0;
    std::uint64_t _delivered = 0;
};

} // namespace fusion::interconnect

#endif // FUSION_INTERCONNECT_LINK_HH
