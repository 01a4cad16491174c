// Frozen drift-reference kernel (see ref_kernel.hh). Do not edit: a
// change to the work done here invalidates R0 and every recorded
// drift-corrected figure.

#include "ref_kernel.hh"

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace fusionbench
{

namespace
{

constexpr std::uint32_t kEventsPerUnit = 1024;
constexpr std::uint32_t kCores = 4;
constexpr std::uint32_t kOutstanding = 4;

using Counters = std::map<std::string, std::uint64_t>;

class Level
{
  public:
    virtual ~Level() = default;
    /** Access one line; @return its latency in toy cycles. */
    virtual std::uint64_t access(std::uint64_t line, bool write) = 0;
};

/** Backing store: a 256 KiB array the host must really walk. */
class Memory final : public Level
{
  public:
    explicit Memory(Counters &c) : _c(c), _data(1u << 15, 0) {}

    std::uint64_t
    access(std::uint64_t line, bool write) override
    {
        std::uint64_t &v = _data[(line * 8) & (_data.size() - 1)];
        if (write) {
            v = v * 31 + line;
            ++_c["mem.writes"];
        } else {
            ++_c["mem.reads"];
        }
        return 100 + (v & 15);
    }

    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0;
        for (std::size_t i = 0; i < _data.size(); i += 97)
            h = h * 1099511628211ull + _data[i];
        return h;
    }

  private:
    Counters &_c;
    std::vector<std::uint64_t> _data;
};

/** Set-associative write-back cache with true LRU. */
class Cache final : public Level
{
  public:
    Cache(std::string name, std::uint32_t sets, std::uint32_t ways,
          std::uint64_t latency, Level &next, Counters &c)
        : _hit(name + ".hits"), _miss(name + ".misses"),
          _wb(name + ".writebacks"), _sets(sets), _ways(ways),
          _latency(latency), _next(next), _c(c),
          _tags(std::size_t{sets} * ways, ~0ull),
          _stamps(std::size_t{sets} * ways, 0),
          _dirty(std::size_t{sets} * ways, 0)
    {
    }

    std::uint64_t
    access(std::uint64_t line, bool write) override
    {
        std::size_t base =
            static_cast<std::size_t>((line ^ (line >> 7)) % _sets) *
            _ways;
        ++_clock;
        for (std::size_t w = base; w < base + _ways; ++w) {
            if (_tags[w] == line) {
                _stamps[w] = _clock;
                _dirty[w] |= write ? 1 : 0;
                ++_c[_hit];
                return _latency;
            }
        }
        ++_c[_miss];
        std::size_t victim = base;
        for (std::size_t w = base + 1; w < base + _ways; ++w) {
            if (_stamps[w] < _stamps[victim])
                victim = w;
        }
        std::uint64_t lat = _latency;
        if (_tags[victim] != ~0ull && _dirty[victim]) {
            ++_c[_wb];
            lat += _next.access(_tags[victim], true) / 4;
        }
        lat += _next.access(line, false);
        _tags[victim] = line;
        _stamps[victim] = _clock;
        _dirty[victim] = write ? 1 : 0;
        return lat;
    }

  private:
    std::string _hit, _miss, _wb;
    std::uint32_t _sets, _ways;
    std::uint64_t _latency;
    Level &_next;
    Counters &_c;
    std::uint64_t _clock = 0;
    std::vector<std::uint64_t> _tags;
    std::vector<std::uint64_t> _stamps;
    std::vector<std::uint8_t> _dirty;
};

struct Event
{
    std::uint64_t when;
    std::uint64_t seq;
    std::function<void()> fn;
};

struct Later
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

/** Four cores, private L1s, a shared L2 and memory. */
class ToySystem
{
  public:
    ToySystem() : _mem(_c), _l2("l2", 256, 16, 12, _mem, _c)
    {
        for (std::uint32_t k = 0; k < kCores; ++k) {
            _l1.push_back(std::make_unique<Cache>(
                "l1." + std::to_string(k), 64, 8, 2, _l2, _c));
            _rng[k] = 0x9e3779b97f4a7c15ull * (k + 1);
            _stream[k] = (std::uint64_t{k} << 20);
        }
        for (std::uint32_t k = 0; k < kCores; ++k) {
            for (std::uint32_t o = 0; o < kOutstanding; ++o)
                launch(k);
        }
    }

    void
    run(std::uint64_t events)
    {
        for (std::uint64_t n = 0; n < events && !_heap.empty(); ++n) {
            Event ev = _heap.top();
            _heap.pop();
            _now = ev.when;
            ev.fn();
            ++_c["events"];
        }
    }

    std::uint64_t
    checksum() const
    {
        std::uint64_t h = _now ^ _mem.digest();
        for (const auto &[name, v] : _c) {
            for (char ch : name)
                h = (h ^ static_cast<unsigned char>(ch)) *
                    1099511628211ull;
            h = (h ^ v) * 1099511628211ull;
        }
        return h;
    }

  private:
    std::uint64_t
    nextLine(std::uint32_t k)
    {
        std::uint64_t &x = _rng[k];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Mostly streaming with reuse, some scattered accesses over
        // a footprint as large as the toy L2.
        if ((x & 7) < 5)
            return _stream[k] + ((++_pos[k] >> 1) & 4095);
        return (x >> 12) & ((1u << 12) - 1);
    }

    void
    launch(std::uint32_t k)
    {
        std::uint64_t line = nextLine(k);
        bool write = (_rng[k] >> 40 & 3) == 0;
        std::uint64_t lat = _l1[k]->access(line, write);
        std::uint64_t t0 = _now;
        _heap.push(Event{_now + lat, _seq++,
                         [this, k, line, t0, write] {
                             complete(k, line, t0, write);
                         }});
    }

    void
    complete(std::uint32_t k, std::uint64_t line, std::uint64_t t0,
             bool write)
    {
        ++_c[write ? "core.stores" : "core.loads"];
        _c["core.latency"] += _now - t0;
        if ((line & 63) == 0)
            _stream[k] += 4096;
        launch(k);
    }

    Counters _c;
    Memory _mem;
    Cache _l2;
    std::vector<std::unique_ptr<Cache>> _l1;
    std::priority_queue<Event, std::vector<Event>, Later> _heap;
    std::uint64_t _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _rng[kCores] = {};
    std::uint64_t _stream[kCores] = {};
    std::uint64_t _pos[kCores] = {};
};

} // namespace

RefSlice
runRefSlice(std::uint32_t units)
{
    ToySystem sys;
    sys.run(std::uint64_t{kEventsPerUnit} * (units / 4 + 1));
    auto t0 = std::chrono::steady_clock::now();
    sys.run(std::uint64_t{kEventsPerUnit} * units);
    auto t1 = std::chrono::steady_clock::now();
    return {std::chrono::duration<double>(t1 - t0).count(),
            sys.checksum()};
}

} // namespace fusionbench
