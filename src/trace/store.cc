#include "trace/store.hh"

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "sim/logging.hh"
#include "sim/wire.hh"

namespace fusion::trace
{

namespace fs = std::filesystem;

namespace
{

constexpr std::string_view kMagic = "FTRC";

/**
 * Hard ceiling on decoded collection sizes. Corruption is normally
 * caught by the envelope hash before decoding starts; this bound is
 * the second line of defense so even a deliberately constructed
 * payload cannot drive a multi-gigabyte allocation.
 */
constexpr std::uint64_t kMaxDecodedOps = std::uint64_t{1} << 27;
constexpr std::uint64_t kMaxDecodedSections = std::uint64_t{1} << 20;

/** Op-block encoder: address deltas + compute run-length. */
void
putOps(wire::Writer &w, const std::vector<TraceOp> &ops)
{
    w.u64(ops.size());
    std::uint64_t prevAddr = 0;
    for (std::size_t i = 0; i < ops.size();) {
        const TraceOp &op = ops[i];
        switch (op.kind) {
          case OpKind::Load:
          case OpKind::Store:
            w.u8(op.kind == OpKind::Load ? 0 : 1);
            w.i64(static_cast<std::int64_t>(op.addr) -
                  static_cast<std::int64_t>(prevAddr));
            w.u32(op.size);
            prevAddr = op.addr;
            ++i;
            break;
          case OpKind::Compute: {
            // Run-length collapse consecutive identical computes.
            std::size_t run = 1;
            while (i + run < ops.size() &&
                   ops[i + run].kind == OpKind::Compute &&
                   ops[i + run].intOps() == op.intOps() &&
                   ops[i + run].fpOps() == op.fpOps())
                ++run;
            w.u8(2);
            w.u32(op.intOps());
            w.u32(op.fpOps());
            w.u64(run);
            i += run;
            break;
          }
        }
    }
}

bool
getOps(wire::Reader &r, std::vector<TraceOp> &ops)
{
    std::uint64_t count;
    if (!r.u64(count) || count > kMaxDecodedOps)
        return false;
    ops.clear();
    ops.reserve(static_cast<std::size_t>(count));
    std::uint64_t prevAddr = 0;
    while (ops.size() < count) {
        std::uint8_t tag;
        if (!r.u8(tag))
            return false;
        if (tag == 0 || tag == 1) {
            std::int64_t delta;
            std::uint32_t size;
            if (!r.i64(delta) || !r.u32(size))
                return false;
            std::uint64_t addr = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(prevAddr) + delta);
            ops.push_back(tag == 0
                              ? TraceOp::load(addr, size)
                              : TraceOp::store(addr, size));
            prevAddr = addr;
        } else if (tag == 2) {
            std::uint32_t intOps, fpOps;
            std::uint64_t run;
            if (!r.u32(intOps) || !r.u32(fpOps) || !r.u64(run) ||
                run == 0 || run > count - ops.size())
                return false;
            for (std::uint64_t k = 0; k < run; ++k)
                ops.push_back(TraceOp::compute(intOps, fpOps));
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

std::string
serializeProgramPayload(const Program &prog)
{
    wire::Writer w;
    w.str(prog.name);
    w.u64(prog.pid);

    w.u64(prog.functions.size());
    for (const FunctionMeta &f : prog.functions) {
        w.str(f.name);
        w.u64(f.accel);
        w.u32(f.mlp);
        w.u64(f.leaseTime);
    }

    // Invocation index: per-invocation op-block payload offsets, as
    // deltas. Written before the blocks so tools (and the robustness
    // tests) can locate any invocation without decoding the rest.
    std::vector<std::string> blocks;
    blocks.reserve(prog.invocations.size());
    for (const Invocation &inv : prog.invocations) {
        wire::Writer b;
        b.u64(static_cast<std::uint64_t>(inv.func));
        putOps(b, inv.ops);
        blocks.push_back(b.take());
    }
    w.u64(blocks.size());
    for (const std::string &b : blocks)
        w.u64(b.size());
    for (const std::string &b : blocks)
        w.str(b);

    putOps(w, prog.hostInit);
    putOps(w, prog.hostFinal);
    return w.take();
}

std::string
serializeProgram(const Program &prog)
{
    return wire::wrapPayload(kMagic, kTraceFormatVersion,
                             serializeProgramPayload(prog));
}

namespace
{

/** Decode an envelope-verified payload; same contract as
 *  deserializeProgram(). */
bool
decodePayload(std::string_view payload, Program &out,
              std::string *err)
{
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };

    Program p;
    wire::Reader r(payload);
    std::uint64_t pid, nFuncs, nInvs;
    if (!r.str(p.name) || !r.u64(pid))
        return fail("truncated program header");
    p.pid = static_cast<Pid>(pid);

    if (!r.u64(nFuncs) || nFuncs > kMaxDecodedSections)
        return fail("bad function count");
    p.functions.resize(static_cast<std::size_t>(nFuncs));
    for (FunctionMeta &f : p.functions) {
        std::uint64_t accel, lease;
        if (!r.str(f.name) || !r.u64(accel) || !r.u32(f.mlp) ||
            !r.u64(lease))
            return fail("truncated function meta");
        f.accel = static_cast<AccelId>(accel);
        f.leaseTime = static_cast<Cycles>(lease);
    }

    if (!r.u64(nInvs) || nInvs > kMaxDecodedSections)
        return fail("bad invocation count");
    std::vector<std::uint64_t> blockSizes(
        static_cast<std::size_t>(nInvs));
    for (std::uint64_t &sz : blockSizes)
        if (!r.u64(sz))
            return fail("truncated invocation index");
    p.invocations.resize(static_cast<std::size_t>(nInvs));
    for (std::size_t i = 0; i < p.invocations.size(); ++i) {
        std::string block;
        if (!r.str(block) || block.size() != blockSizes[i])
            return fail("invocation index disagrees with block");
        wire::Reader br(block);
        std::uint64_t func;
        if (!br.u64(func) || !getOps(br, p.invocations[i].ops) ||
            !br.done())
            return fail("bad invocation op block");
        p.invocations[i].func = static_cast<FuncId>(func);
        if (func >= nFuncs)
            return fail("invocation names unknown function");
    }

    if (!getOps(r, p.hostInit) || !getOps(r, p.hostFinal))
        return fail("bad host op block");
    if (!r.done())
        return fail("trailing bytes after program");
    out = std::move(p);
    return true;
}

/** Read a whole regular file into @p out; false if unreadable. */
bool
readFile(const std::string &file, std::string &out)
{
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(file, ec);
    if (ec)
        return false;
    std::ifstream in(file, std::ios::binary);
    out.resize(static_cast<std::size_t>(size));
    return in &&
           in.read(out.data(), static_cast<std::streamsize>(size));
}

} // namespace

bool
deserializeProgram(std::string_view bytes, Program &out,
                   std::string *err)
{
    std::string_view payload;
    return wire::unwrapPayload(kMagic, kTraceFormatVersion, bytes,
                               payload, err) &&
           decodePayload(payload, out, err);
}

std::uint64_t
programHash(const Program &prog)
{
    return fnv1a(serializeProgramPayload(prog));
}

TraceStore::TraceStore(std::string dir) : _dir(std::move(dir)) {}

std::string
TraceStore::path(const std::string &name,
                 workloads::Scale scale) const
{
    return _dir + "/" + name + "." +
           workloads::scaleName(scale) + ".ftrc";
}

std::optional<Program>
StoredTrace::decode() const
{
    Program p;
    std::string err;
    if (!decodePayload(std::string_view(image).substr(payloadAt), p,
                       &err)) {
        DPRINTFN("CACHE", "trace store: ", path, " rejected (", err,
                 "); regenerating");
        return std::nullopt;
    }
    return p;
}

std::optional<StoredTrace>
TraceStore::open(const std::string &name,
                 workloads::Scale scale) const
{
    StoredTrace st;
    st.path = path(name, scale);
    if (!readFile(st.path, st.image))
        return std::nullopt;
    std::string_view payload;
    std::string err;
    if (!wire::unwrapPayload(kMagic, kTraceFormatVersion, st.image,
                             payload, &err, &st.hash)) {
        DPRINTFN("CACHE", "trace store: ", st.path, " rejected (",
                 err, "); regenerating");
        return std::nullopt;
    }
    st.payloadAt = st.image.size() - payload.size();
    return st;
}

std::optional<Program>
TraceStore::load(const std::string &name,
                 workloads::Scale scale) const
{
    auto st = open(name, scale);
    return st ? st->decode() : std::nullopt;
}

void
TraceStore::store(const std::string &name, workloads::Scale scale,
                  const Program &prog)
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    const std::string dst = path(name, scale);
    // Atomic publish: write a private temp file, then rename. A
    // concurrent writer of the same key just wins the last rename;
    // readers only ever see complete files.
    const std::string tmp =
        dst + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (out)
            out << serializeProgram(prog);
        if (!out) {
            if (!_warned) {
                _warned = true;
                fusion_warn("trace store: cannot write ", tmp,
                            " (recording disabled for this store)");
            }
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, dst, ec);
    if (ec) {
        if (!_warned) {
            _warned = true;
            fusion_warn("trace store: cannot publish ", dst, ": ",
                        ec.message());
        }
        fs::remove(tmp, ec);
    }
}

namespace
{

std::mutex g_storeMu;
std::unique_ptr<TraceStore> g_store;

} // namespace

TraceStore *
globalStore()
{
    std::lock_guard<std::mutex> lk(g_storeMu);
    return g_store.get();
}

void
setGlobalStoreDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lk(g_storeMu);
    if (dir.empty())
        g_store.reset();
    else
        g_store = std::make_unique<TraceStore>(dir);
}

} // namespace fusion::trace
