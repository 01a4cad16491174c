#include "trace/recorder.hh"

#include <algorithm>
#include <limits>

namespace fusion::trace
{

Recorder::Recorder(std::string program_name, Pid pid)
{
    _prog.name = std::move(program_name);
    _prog.pid = pid;
}

FuncId
Recorder::addFunction(const FunctionMeta &meta)
{
    _prog.functions.push_back(meta);
    return static_cast<FuncId>(_prog.functions.size()) - 1;
}

void
Recorder::beginHostInit()
{
    fusion_assert(_phase == Phase::Idle, "recorder phase not idle");
    _phase = Phase::HostInit;
}

void
Recorder::beginHostFinal()
{
    fusion_assert(_phase == Phase::Idle, "recorder phase not idle");
    _phase = Phase::HostFinal;
}

void
Recorder::beginInvocation(FuncId func)
{
    fusion_assert(_phase == Phase::Idle, "recorder phase not idle");
    fusion_assert(func >= 0 &&
                      func < static_cast<FuncId>(
                                 _prog.functions.size()),
                  "unknown function id ", func);
    _phase = Phase::Invocation;
    _prog.invocations.push_back(Invocation{func, {}});
}

void
Recorder::end()
{
    fusion_assert(_phase != Phase::Idle, "recorder already idle");
    flushCompute();
    _phase = Phase::Idle;
}

std::vector<TraceOp> &
Recorder::activeStream()
{
    switch (_phase) {
      case Phase::HostInit:
        return _prog.hostInit;
      case Phase::HostFinal:
        return _prog.hostFinal;
      case Phase::Invocation:
        return _prog.invocations.back().ops;
      case Phase::Idle:
        break;
    }
    fusion_panic("trace op recorded outside any phase");
}

void
Recorder::flushCompute()
{
    // A compute op holds 32-bit counts.
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint32_t>::max();
    while (_pendingInt != 0 || _pendingFp != 0) {
        const std::uint64_t int_ops = std::min(_pendingInt, kMax);
        const std::uint64_t fp_ops = std::min(_pendingFp, kMax);
        activeStream().push_back(
            TraceOp::compute(static_cast<std::uint32_t>(int_ops),
                             static_cast<std::uint32_t>(fp_ops)));
        _pendingInt -= int_ops;
        _pendingFp -= fp_ops;
    }
}

void
Recorder::load(Addr va, std::uint32_t size)
{
    flushCompute();
    activeStream().push_back(TraceOp::load(va, size));
}

void
Recorder::store(Addr va, std::uint32_t size)
{
    flushCompute();
    activeStream().push_back(TraceOp::store(va, size));
}

Program
Recorder::take()
{
    fusion_assert(_phase == Phase::Idle,
                  "take() with an open phase");
    return std::move(_prog);
}

} // namespace fusion::trace
