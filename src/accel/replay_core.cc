#include "accel/replay_core.hh"

#include "energy/energy_ledger.hh"
#include "sim/logging.hh"

namespace fusion::accel
{

ReplayCore::ReplayCore(SimContext &ctx, const ReplayCoreParams &p)
    : _ctx(ctx), _p(p)
{
    if (!_p.computeComponent.empty())
        _ecCompute = ctx.energy.component(_p.computeComponent);
    ctx.stats.counters(_p.name, {{"int_ops", _intOps},
                                 {"fp_ops", _fpOps},
                                 {"loads", _loads},
                                 {"stores", _stores}});

    ctx.guard.registerSnapshot(_p.name, [this] {
        guard::ComponentState s;
        s.outstanding = _outstandingLoads + _outstandingStores;
        if (_active) {
            s.detail = "op " + std::to_string(_pos) + "/" +
                       std::to_string(_end) + " loads=" +
                       std::to_string(_outstandingLoads) +
                       " stores=" + std::to_string(_outstandingStores);
        }
        return s;
    });
}

void
ReplayCore::run(const std::vector<trace::TraceOp> &ops,
                std::size_t begin, std::size_t end,
                std::uint32_t max_loads, MemPort &port,
                sim::SmallFn<void()> done)
{
    fusion_assert(!_active, _p.name, " already running");
    fusion_assert(max_loads > 0, "MLP must be positive");
    fusion_assert(begin <= end && end <= ops.size(), "op range OOB");
    _ops = &ops;
    _port = &port;
    _maxLoads = max_loads;
    _pos = begin;
    _end = end;
    _outstandingLoads = 0;
    _outstandingStores = 0;
    _active = true;
    _done = std::move(done);
    pump();
}

void
ReplayCore::pump()
{
    _pumpScheduled = false;
    while (_pos < _end) {
        const trace::TraceOp &op = (*_ops)[_pos];
        if (op.kind == trace::OpKind::Compute) {
            const std::uint32_t int_ops = op.intOps();
            const std::uint32_t fp_ops = op.fpOps();
            if (_ecCompute != energy::kInvalidComponent) {
                _ctx.energy.add(_ecCompute, _p.intOpPj * int_ops +
                                                _p.fpOpPj * fp_ops);
            }
            _intOps += int_ops;
            _fpOps += fp_ops;
            // 64-bit: two 32-bit counts near 2^32 must not wrap.
            const Cycles c =
                (Cycles{int_ops} + fp_ops + _p.width - 1) / _p.width;
            ++_pos;
            if (c > 0) {
                _pumpScheduled = true;
                _ctx.eq.scheduleIn(c, [this] { pump(); });
                return;
            }
            continue;
        }
        bool is_store = op.kind == trace::OpKind::Store;
        if (is_store ? _outstandingStores >= _p.storeBuffer
                     : _outstandingLoads >= _maxLoads)
            return; // a completion re-pumps
        ++_pos;
        ++(is_store ? _stores : _loads);
        if (is_store)
            ++_outstandingStores;
        else
            ++_outstandingLoads;
        _port->access(op.addr, op.size, is_store, [this, is_store] {
            if (is_store)
                --_outstandingStores;
            else
                --_outstandingLoads;
            _ctx.guard.noteProgress();
            if (!_pumpScheduled) {
                _pumpScheduled = true;
                _ctx.eq.scheduleIn(0, [this] { pump(); });
            }
        });
        // At most one memory issue per cycle.
        if (_pos < _end) {
            _pumpScheduled = true;
            _ctx.eq.scheduleIn(1, [this] { pump(); });
        }
        return;
    }
    if (_outstandingLoads == 0 && _outstandingStores == 0 &&
        _active) {
        _active = false;
        auto done = std::move(_done); // move empties _done
        done();
    }
}

} // namespace fusion::accel
