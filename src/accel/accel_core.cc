#include "accel/accel_core.hh"

#include "energy/energy_ledger.hh"
#include "sim/logging.hh"

namespace fusion::accel
{

AccelCore::AccelCore(SimContext &ctx, const AccelCoreParams &p,
                     AccelId id)
    : _ctx(ctx), _p(p), _id(id)
{
    _ecCompute = ctx.energy.component(energy::comp::kAxcCompute);
    ctx.stats.counters("axc" + std::to_string(id) + ".core",
                       {{"int_ops", _intOps},
                        {"fp_ops", _fpOps},
                        {"loads", _loads},
                        {"stores", _stores}});

    ctx.guard.registerSnapshot(
        "axc" + std::to_string(id), [this] {
            guard::ComponentState s;
            s.outstanding = _outstandingLoads + _outstandingStores;
            if (_active) {
                s.detail = "op " + std::to_string(_pos) + "/" +
                           std::to_string(_end) + " loads=" +
                           std::to_string(_outstandingLoads) +
                           " stores=" +
                           std::to_string(_outstandingStores);
            }
            return s;
        });
}

void
AccelCore::run(const trace::Invocation &inv, std::uint32_t mlp,
               MemPort &port, std::size_t begin_op,
               std::size_t end_op, sim::SmallFn<void()> done)
{
    fusion_assert(!_active, "accelerator ", _id, " already running");
    fusion_assert(mlp > 0, "MLP must be positive");
    fusion_assert(end_op <= inv.ops.size(), "op range OOB");
    _inv = &inv;
    _port = &port;
    _mlp = mlp;
    _pos = begin_op;
    _end = end_op;
    _outstandingLoads = 0;
    _outstandingStores = 0;
    _active = true;
    _done = std::move(done);
    pump();
}

void
AccelCore::pump()
{
    _pumpScheduled = false;
    while (_pos < _end) {
        const trace::TraceOp &op = _inv->ops[_pos];
        if (op.kind == trace::OpKind::Compute) {
            _ctx.energy.add(_ecCompute,
                            _p.intOpPj * op.intOps +
                                _p.fpOpPj * op.fpOps);
            _intOps += op.intOps;
            _fpOps += op.fpOps;
            Cycles c =
                (op.intOps + op.fpOps + _p.datapathWidth - 1) /
                _p.datapathWidth;
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
                     : _outstandingLoads >= _mlp)
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
