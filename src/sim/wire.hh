/**
 * @file
 * Minimal binary wire format helpers shared by the on-disk stores
 * (trace::TraceStore and sweep::ResultCache).
 *
 * The encoding is deliberately tiny and fully deterministic:
 *
 *  - unsigned integers are LEB128 varints (7 bits per byte, low
 *    group first);
 *  - signed integers are zigzag-folded into varints so small
 *    negative deltas stay short;
 *  - doubles are serialized as their IEEE-754 bit pattern in a
 *    fixed 8-byte little-endian field, so round-trips are bit-exact
 *    and re-serialized JSON (%.17g) is byte-identical;
 *  - strings are a varint length followed by raw bytes.
 *
 * Reader methods are total: they return false on truncation or
 * malformed input instead of crashing, which is what makes a
 * corrupted store entry degrade to a cache miss (docs/HARDENING.md,
 * "Corrupt on-disk artifacts").
 *
 * wrapPayload()/unwrapPayload() add the shared file envelope: a
 * 4-byte magic, a format version, the payload length and an FNV-1a
 * content hash over the payload. unwrapPayload() validates all four
 * before handing out a single payload byte, so decoders only ever
 * see content that hashed correctly end to end.
 */

#ifndef FUSION_SIM_WIRE_HH
#define FUSION_SIM_WIRE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/hash.hh"

namespace fusion::wire
{

/** Append-only encoder over a std::string buffer. */
class Writer
{
  public:
    void
    u64(std::uint64_t v)
    {
        while (v >= 0x80) {
            _buf.push_back(static_cast<char>(0x80 | (v & 0x7f)));
            v >>= 7;
        }
        _buf.push_back(static_cast<char>(v));
    }

    void u32(std::uint32_t v) { u64(v); }
    void u8(std::uint8_t v) { _buf.push_back(static_cast<char>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Zigzag-folded signed varint. */
    void
    i64(std::int64_t v)
    {
        u64((static_cast<std::uint64_t>(v) << 1) ^
            static_cast<std::uint64_t>(v >> 63));
    }

    /** IEEE-754 bit pattern, fixed 8 bytes little-endian. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i)
            _buf.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        _buf.append(s.data(), s.size());
    }

    const std::string &bytes() const { return _buf; }
    std::string take() { return std::move(_buf); }

  private:
    std::string _buf;
};

/** Cursor-based decoder; every method is truncation-safe. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : _bytes(bytes) {}

    bool
    u64(std::uint64_t &out)
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (_pos >= _bytes.size())
                return false;
            std::uint8_t b =
                static_cast<std::uint8_t>(_bytes[_pos++]);
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80)) {
                out = v;
                return true;
            }
        }
        return false; // > 10 groups: malformed
    }

    bool
    u32(std::uint32_t &out)
    {
        std::uint64_t v;
        if (!u64(v) || v > 0xffffffffull)
            return false;
        out = static_cast<std::uint32_t>(v);
        return true;
    }

    bool
    u8(std::uint8_t &out)
    {
        if (_pos >= _bytes.size())
            return false;
        out = static_cast<std::uint8_t>(_bytes[_pos++]);
        return true;
    }

    bool
    boolean(bool &out)
    {
        std::uint8_t b;
        if (!u8(b) || b > 1)
            return false;
        out = b != 0;
        return true;
    }

    bool
    i64(std::int64_t &out)
    {
        std::uint64_t z;
        if (!u64(z))
            return false;
        out = static_cast<std::int64_t>((z >> 1) ^
                                        (~(z & 1) + 1));
        return true;
    }

    bool
    f64(double &out)
    {
        if (_bytes.size() - _pos < 8)
            return false;
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
            bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                        _bytes[_pos + static_cast<std::size_t>(i)]))
                    << (8 * i);
        _pos += 8;
        std::memcpy(&out, &bits, sizeof(out));
        return true;
    }

    bool
    str(std::string &out)
    {
        std::uint64_t n;
        if (!u64(n) || n > _bytes.size() - _pos)
            return false;
        out.assign(_bytes.data() + _pos, static_cast<std::size_t>(n));
        _pos += static_cast<std::size_t>(n);
        return true;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return _bytes.size() - _pos; }
    bool done() const { return _pos == _bytes.size(); }

  private:
    std::string_view _bytes;
    std::size_t _pos = 0;
};

/**
 * File envelope: magic (4 bytes) | version varint | payload length
 * varint | payload FNV-1a varint | payload bytes.
 */
inline std::string
wrapPayload(std::string_view magic, std::uint32_t version,
            std::string_view payload)
{
    Writer w;
    std::string out(magic);
    w.u32(version);
    w.u64(payload.size());
    w.u64(fnv1a(payload));
    out += w.bytes();
    out.append(payload.data(), payload.size());
    return out;
}

/**
 * Validate and strip the envelope. On success @p payload views into
 * @p bytes (which must outlive it) and, when @p hashOut is non-null,
 * it receives the verified payload FNV-1a. On any mismatch — wrong
 * magic, wrong version, truncated file, trailing garbage, or an
 * FNV-1a content hash that does not match — returns false and, when
 * @p err is non-null, stores a one-line reason.
 */
inline bool
unwrapPayload(std::string_view magic, std::uint32_t version,
              std::string_view bytes, std::string_view &payload,
              std::string *err, std::uint64_t *hashOut = nullptr)
{
    auto fail = [&](const char *why) {
        if (err)
            *err = why;
        return false;
    };
    if (bytes.size() < magic.size() ||
        bytes.substr(0, magic.size()) != magic)
        return fail("bad magic");
    Reader r(bytes.substr(magic.size()));
    std::uint32_t v;
    std::uint64_t len, hash;
    if (!r.u32(v) || !r.u64(len) || !r.u64(hash))
        return fail("truncated header");
    if (v != version)
        return fail("format version mismatch");
    if (r.remaining() != len)
        return fail("payload length mismatch");
    std::string_view p =
        bytes.substr(bytes.size() - static_cast<std::size_t>(len));
    if (fnv1a(p) != hash)
        return fail("content hash mismatch");
    payload = p;
    if (hashOut)
        *hashOut = hash;
    return true;
}

} // namespace fusion::wire

#endif // FUSION_SIM_WIRE_HH
