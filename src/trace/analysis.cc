#include "trace/analysis.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace fusion::trace
{

void
LineSet::reserve(std::size_t n)
{
    std::size_t slots = 16;
    while (slots < 2 * n)
        slots *= 2;
    if (slots > _slots.size())
        rehash(slots);
}

std::size_t
LineSet::find(Addr line) const
{
    const std::size_t mask = _slots.size() - 1;
    // Fibonacci hashing of the line number; linear probing.
    std::size_t i = static_cast<std::size_t>(
                        (lineNumber(line) * 0x9e3779b97f4a7c15ull) >> 32) &
                    mask;
    while (_slots[i] != line && _slots[i] != kEmpty)
        i = (i + 1) & mask;
    return i;
}

void
LineSet::rehash(std::size_t slots)
{
    const std::vector<Addr> old =
        std::exchange(_slots, std::vector<Addr>(slots, kEmpty));
    for (Addr line : old) {
        if (line != kEmpty)
            _slots[find(line)] = line;
    }
}

bool
LineSet::insert(Addr line)
{
    if (2 * (_size + 1) > _slots.size())
        reserve(_size + 1);
    Addr &slot = _slots[find(line)];
    if (slot == line)
        return false;
    slot = line;
    ++_size;
    return true;
}

bool
LineSet::contains(Addr line) const
{
    return !_slots.empty() && _slots[find(line)] == line;
}

void
LineSet::clear()
{
    std::fill(_slots.begin(), _slots.end(), kEmpty);
    _size = 0;
}

std::vector<FunctionProfile>
profileFunctions(const Program &prog)
{
    std::size_t nfunc = prog.functions.size();
    std::vector<FunctionProfile> out(nfunc);
    std::vector<std::unordered_set<Addr>> func_lines(nfunc);
    std::vector<std::uint64_t> loads(nfunc, 0), stores(nfunc, 0);

    for (const auto &inv : prog.invocations) {
        auto f = static_cast<std::size_t>(inv.func);
        for (const auto &op : inv.ops) {
            switch (op.kind) {
              case OpKind::Load:
                ++loads[f];
                func_lines[f].insert(lineAlign(op.addr));
                break;
              case OpKind::Store:
                ++stores[f];
                func_lines[f].insert(lineAlign(op.addr));
                break;
              case OpKind::Compute:
                out[f].intOps += op.intOps();
                out[f].fpOps += op.fpOps();
                break;
            }
        }
    }

    // Lines touched per accelerator (for %SHR the unit of sharing is
    // the accelerator, Section 2: "accessed by at least another
    // accelerator").
    std::unordered_map<AccelId, std::unordered_set<Addr>> accel_lines;
    for (std::size_t f = 0; f < nfunc; ++f) {
        AccelId a = prog.functions[f].accel;
        accel_lines[a].insert(func_lines[f].begin(),
                              func_lines[f].end());
    }

    for (std::size_t f = 0; f < nfunc; ++f) {
        FunctionProfile &p = out[f];
        p.name = prog.functions[f].name;
        p.mlp = prog.functions[f].mlp;
        p.leaseTime = prog.functions[f].leaseTime;
        p.memOps = loads[f] + stores[f];
        p.footprintLines = func_lines[f].size();

        double total = static_cast<double>(p.memOps + p.intOps +
                                           p.fpOps);
        if (total > 0) {
            p.pctInt = 100.0 * static_cast<double>(p.intOps) / total;
            p.pctFp = 100.0 * static_cast<double>(p.fpOps) / total;
            p.pctLd = 100.0 * static_cast<double>(loads[f]) / total;
            p.pctSt = 100.0 * static_cast<double>(stores[f]) / total;
        }

        AccelId mine = prog.functions[f].accel;
        std::uint64_t shared = 0;
        for (Addr line : func_lines[f]) {
            for (const auto &[a, lines] : accel_lines) {
                if (a == mine)
                    continue;
                if (lines.count(line)) {
                    ++shared;
                    break;
                }
            }
        }
        if (!func_lines[f].empty()) {
            p.sharePct = 100.0 * static_cast<double>(shared) /
                         static_cast<double>(func_lines[f].size());
        }
    }
    return out;
}

std::uint64_t
footprintLines(const std::vector<TraceOp> &ops)
{
    LineSet lines;
    for (const auto &op : ops) {
        if (op.kind != OpKind::Compute)
            lines.insert(lineAlign(op.addr));
    }
    return lines.size();
}

std::uint64_t
footprintLines(const Program &prog)
{
    LineSet lines;
    for (const auto &inv : prog.invocations) {
        for (const auto &op : inv.ops) {
            if (op.kind != OpKind::Compute)
                lines.insert(lineAlign(op.addr));
        }
    }
    return lines.size();
}

std::vector<DmaWindow>
segmentWindows(const Invocation &inv, std::uint64_t scratch_lines)
{
    fusion_assert(scratch_lines > 0, "zero-size scratchpad");
    std::vector<DmaWindow> windows;
    DmaWindow cur;
    // A window never holds more than scratch_lines lines, so the
    // sets never grow past their first allocation.
    const auto most = static_cast<std::size_t>(
        std::min<std::uint64_t>(scratch_lines, inv.ops.size()));
    LineSet in_window, read_set, dirty_set;
    in_window.reserve(most);
    read_set.reserve(most);
    dirty_set.reserve(most);

    auto close = [&](std::size_t end_op) {
        if (in_window.size() == 0 && cur.beginOp == end_op)
            return;
        cur.endOp = end_op;
        std::sort(cur.readLines.begin(), cur.readLines.end());
        std::sort(cur.dirtyLines.begin(), cur.dirtyLines.end());
        windows.push_back(std::move(cur));
        cur = DmaWindow{};
        cur.beginOp = end_op;
        in_window.clear();
        read_set.clear();
        dirty_set.clear();
    };

    for (std::size_t i = 0; i < inv.ops.size(); ++i) {
        const TraceOp &op = inv.ops[i];
        if (op.kind == OpKind::Compute)
            continue;
        Addr line = lineAlign(op.addr);
        if (!in_window.contains(line) &&
            in_window.size() >= scratch_lines) {
            close(i);
        }
        in_window.insert(line);
        if (op.kind == OpKind::Load) {
            if (read_set.insert(line))
                cur.readLines.push_back(line);
        } else if (dirty_set.insert(line)) {
            cur.dirtyLines.push_back(line);
        }
    }
    close(inv.ops.size());
    return windows;
}

ForwardPlan
planForwarding(const Program &prog)
{
    // Build, per line, the ordered list of (invocation, first access
    // kind in that invocation).
    struct Touch
    {
        std::uint32_t inv;
        bool firstIsLoad;
        bool everStored;
    };
    std::unordered_map<Addr, std::vector<Touch>> timeline;

    for (std::uint32_t i = 0; i < prog.invocations.size(); ++i) {
        const Invocation &inv = prog.invocations[i];
        std::unordered_set<Addr> seen;
        for (const auto &op : inv.ops) {
            if (op.kind == OpKind::Compute)
                continue;
            Addr line = lineAlign(op.addr);
            auto &v = timeline[line];
            if (!seen.count(line)) {
                seen.insert(line);
                v.push_back(Touch{i, op.kind == OpKind::Load, false});
            }
            if (op.kind == OpKind::Store)
                v.back().everStored = true;
        }
    }

    ForwardPlan plan;
    for (const auto &[line, touches] : timeline) {
        for (std::size_t t = 0; t + 1 < touches.size(); ++t) {
            const Touch &prod = touches[t];
            const Touch &cons = touches[t + 1];
            if (!prod.everStored || !cons.firstIsLoad)
                continue;
            AccelId pa =
                prog.functions[static_cast<std::size_t>(
                                   prog.invocations[prod.inv].func)]
                    .accel;
            AccelId ca =
                prog.functions[static_cast<std::size_t>(
                                   prog.invocations[cons.inv].func)]
                    .accel;
            if (pa == ca)
                continue;
            plan[prod.inv][line] = ca;
        }
    }
    return plan;
}

std::vector<std::vector<std::uint32_t>>
invocationDependences(const Program &prog)
{
    std::size_t n = prog.invocations.size();
    std::vector<std::vector<std::uint32_t>> deps(n);
    std::vector<std::unordered_set<std::uint32_t>> dep_sets(n);

    struct LineState
    {
        std::int64_t lastWriter = -1;
        std::vector<std::uint32_t> readersSinceWrite;
    };
    std::unordered_map<Addr, LineState> lines;

    auto add_dep = [&](std::uint32_t from, std::uint32_t to) {
        if (from == to)
            return;
        if (dep_sets[to].insert(from).second)
            deps[to].push_back(from);
    };

    for (std::uint32_t j = 0; j < n; ++j) {
        const Invocation &inv = prog.invocations[j];
        // Unique (line, mode) touches of this invocation.
        std::unordered_map<Addr, bool> touched; // line -> wrote?
        for (const auto &op : inv.ops) {
            if (op.kind == OpKind::Compute)
                continue;
            bool &wrote = touched[lineAlign(op.addr)];
            wrote = wrote || op.kind == OpKind::Store;
        }
        for (const auto &[line, wrote] : touched) {
            LineState &st = lines[line];
            // RAW/WAW: depend on the last writer.
            if (st.lastWriter >= 0) {
                add_dep(static_cast<std::uint32_t>(st.lastWriter),
                        j);
            }
            if (wrote) {
                // WAR: depend on every reader since that write.
                for (std::uint32_t r : st.readersSinceWrite)
                    add_dep(r, j);
                st.lastWriter = j;
                st.readersSinceWrite.clear();
            } else {
                st.readersSinceWrite.push_back(j);
            }
        }
    }
    for (auto &d : deps)
        std::sort(d.begin(), d.end());
    return deps;
}

WorkingSet
workingSet(const Program &prog)
{
    return WorkingSet{footprintLines(prog)};
}

} // namespace fusion::trace
