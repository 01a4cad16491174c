/**
 * @file
 * Binary on-disk trace store: capture a generated trace::Program
 * once, replay it from disk thereafter.
 *
 * Generating a workload's dynamic trace runs the real kernels over
 * instrumented arrays and self-checks them against golden
 * references, which would dominate sweep start-up cost if every
 * harness run paid it. GPU simulators persist trace artifacts
 * separately from stats for exactly this reason; this store is our
 * equivalent (DESIGN.md §10).
 *
 * File format ("FTRC", version 1):
 *
 *   "FTRC" | version | payload length | payload FNV-1a   (envelope)
 *   payload:
 *     name | pid
 *     #functions | per function: name, accel, mlp, leaseTime
 *     invocation index: #invocations | per invocation the byte
 *       offset of its op block within the payload (varint deltas)
 *     per invocation: func id | op block
 *     hostInit op block | hostFinal op block
 *
 * An op block encodes the program-ordered TraceOp stream compactly:
 * memory-op addresses are zigzag varint deltas against the previous
 * memory op's address in the same block, and consecutive identical
 * compute ops are run-length collapsed. The payload FNV-1a doubles
 * as the *content identity* of the trace — programHash() — which
 * keys the sweep result cache together with
 * SystemConfig::canonicalHash().
 *
 * Invariant the sweep relies on: the envelope's payload FNV-1a of a
 * file serializeProgram() wrote *is* programHash() of the program it
 * decodes to — both are fnv1a(serializeProgramPayload(prog)). So
 * TraceStore::open() yields a trace's identity from one read and the
 * envelope check alone, and a fully warm sweep keys its result-cache
 * probes by StoredTrace::hash without decoding or re-serializing
 * anything; StoredTrace::decode() runs only when a job simulates.
 *
 * Loads are corruption-tolerant end to end: a truncated, bit-flipped
 * or trailing-garbage file fails the envelope hash (or a decode
 * bound) and degrades to a miss — the workload is simply regenerated
 * and re-recorded over it. A store never crashes the simulation.
 */

#ifndef FUSION_TRACE_STORE_HH
#define FUSION_TRACE_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace fusion::trace
{

/** On-disk trace format version; bump on any encoding change. */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/** Canonical payload encoding of @p prog (no file envelope). */
std::string serializeProgramPayload(const Program &prog);

/** Complete file image: envelope + payload. */
std::string serializeProgram(const Program &prog);

/**
 * Decode a file image produced by serializeProgram(). Returns false
 * (and a reason in @p err, when non-null) on any corruption; @p out
 * is only modified on success.
 */
bool deserializeProgram(std::string_view bytes, Program &out,
                        std::string *err = nullptr);

/**
 * Content identity of a trace: FNV-1a over the canonical payload
 * encoding. Identical programs hash identically regardless of how
 * they were obtained (generated or replayed); any op, metadata or
 * ordering difference changes the hash.
 */
std::uint64_t programHash(const Program &prog);

/**
 * A stored trace file whose envelope verified: magic, format
 * version, payload length and payload FNV-1a all matched. Decoding
 * is deferred to decode(), so a caller that needs only the trace's
 * identity never pays for it.
 */
struct StoredTrace
{
    /** File the image was read from (diagnostics only). */
    std::string path;
    /** Complete file image: envelope + payload. */
    std::string image;
    /** Offset of the payload within @ref image. */
    std::size_t payloadAt = 0;
    /** Verified payload FNV-1a: programHash() of the decoded program
     *  (file comment). */
    std::uint64_t hash = 0;

    /** Decode the payload; nullopt (logged) when it does not decode. */
    std::optional<Program> decode() const;
};

/**
 * Directory of serialized traces keyed by (workload name, scale).
 * Writes are atomic (temp file + rename), so concurrent writers of
 * the same key are safe and readers never observe a partial file.
 */
class TraceStore
{
  public:
    explicit TraceStore(std::string dir);

    const std::string &dir() const { return _dir; }

    /** File path for one (workload, scale) key. */
    std::string path(const std::string &name,
                     workloads::Scale scale) const;

    /**
     * Read the stored trace for (name, scale) once and check its
     * whole envelope, decoding nothing. An absent file or any
     * envelope mismatch is a nullopt miss.
     */
    std::optional<StoredTrace> open(const std::string &name,
                                    workloads::Scale scale) const;

    /**
     * open() followed by StoredTrace::decode(). Any failure — file
     * absent, envelope mismatch, decode error — is a nullopt miss.
     */
    std::optional<Program> load(const std::string &name,
                                workloads::Scale scale) const;

    /**
     * Persist @p prog under (name, scale). Best-effort: failures
     * (unwritable directory, disk full) warn once per store and are
     * otherwise ignored — recording is an optimization, never a
     * correctness requirement.
     */
    void store(const std::string &name, workloads::Scale scale,
               const Program &prog);

  private:
    std::string _dir;
    bool _warned = false;
};

/**
 * Process-global replay store consulted by workloads::buildProgram.
 * Unset by default (every build regenerates, byte-identical to the
 * pre-store tree); the bench harnesses arm it from --trace-dir.
 * @return nullptr when disabled.
 */
TraceStore *globalStore();

/** Arm (non-empty) or disarm (empty) the global replay store. */
void setGlobalStoreDir(const std::string &dir);

} // namespace fusion::trace

#endif // FUSION_TRACE_STORE_HH
