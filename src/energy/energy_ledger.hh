/**
 * @file
 * Per-component dynamic-energy accounting.
 *
 * Every structure and link in the simulated system books the energy
 * of each access against a named component in one shared Ledger; the
 * experiment harness then renders the Figure-6a-style stacked
 * breakdowns from the ledger totals.
 *
 * Booking is handle-based: a component registers its name once at
 * construction via component() and receives a ComponentId indexing a
 * flat vector of totals, so the per-access path (every cache, link
 * and DRAM access) is one indexed add. Nothing books by name, so no
 * entry is ever created on a booking. The
 * name-keyed views (components(), total(), grandTotal()) iterate in
 * name-sorted order over components that have actually booked,
 * which keeps reporter output — including the floating-point
 * accumulation order of the totals — byte-identical to the
 * map-backed ledger.
 */

#ifndef FUSION_ENERGY_ENERGY_LEDGER_HH
#define FUSION_ENERGY_ENERGY_LEDGER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fusion::energy
{

/**
 * Canonical component names used across the simulator so that
 * results are comparable between system configurations.
 */
namespace comp
{
inline constexpr const char *kAxcCompute = "axc.compute";
inline constexpr const char *kL0x = "l0x";
inline constexpr const char *kScratchpad = "scratchpad";
inline constexpr const char *kL1x = "l1x";
inline constexpr const char *kHostL1 = "host.l1";
inline constexpr const char *kLlc = "llc";
inline constexpr const char *kDram = "dram";
inline constexpr const char *kAxTlb = "ax_tlb";
inline constexpr const char *kAxRmap = "ax_rmap";
inline constexpr const char *kLinkL0xL1xMsg = "link.l0x_l1x.msg";
inline constexpr const char *kLinkL0xL1xData = "link.l0x_l1x.data";
inline constexpr const char *kLinkL1xL2Msg = "link.l1x_l2.msg";
inline constexpr const char *kLinkL1xL2Data = "link.l1x_l2.data";
inline constexpr const char *kLinkL0xL0x = "link.l0x_l0x";
inline constexpr const char *kLinkHostL1L2 = "link.hostl1_l2";
inline constexpr const char *kLinkLlcDram = "link.llc_dram";
} // namespace comp

/** Index of one registered component in the ledger (see
 *  Ledger::component()). */
using ComponentId = std::uint32_t;

/** Sentinel for "no component" (e.g. a Link with no energy names
 *  configured). add() on it is invalid; callers gate on it. */
inline constexpr ComponentId kInvalidComponent = 0xffffffffu;

/** Accumulates picojoules per registered component. */
class Ledger
{
  public:
    /**
     * Register (or look up) @p name and return its id. Idempotent;
     * meant to be called once per component at construction, after
     * which every booking is a flat vector add.
     */
    ComponentId
    component(const std::string &name)
    {
        auto [it, inserted] = _index.try_emplace(
            name, static_cast<ComponentId>(_vals.size()));
        if (inserted) {
            _vals.push_back(0.0);
            _booked.push_back(false);
        }
        return it->second;
    }

    /** Book @p pj picojoules against registered component @p id. */
    void
    add(ComponentId id, double pj)
    {
        _vals[id] += pj;
        _booked[id] = true;
    }

    /** Total booked against @p component (0 if never seen). */
    double
    total(const std::string &component) const
    {
        auto it = _index.find(component);
        return it == _index.end() ? 0.0 : _vals[it->second];
    }

    /** Sum over all components (name-sorted accumulation order). */
    double
    grandTotal() const
    {
        double t = 0.0;
        for (const auto &[k, id] : _index) {
            if (_booked[id])
                t += _vals[id];
        }
        return t;
    }

    /**
     * All components that have booked at least once, with their
     * totals. Registration alone does not create an entry, so the
     * view (and everything serialized from it) matches the old
     * booked-names-only map exactly.
     */
    std::map<std::string, double>
    components() const
    {
        std::map<std::string, double> out;
        for (const auto &[k, id] : _index) {
            if (_booked[id])
                out.emplace(k, _vals[id]);
        }
        return out;
    }

    /** Zero everything (registrations — and ids — survive). */
    void
    reset()
    {
        for (std::size_t i = 0; i < _vals.size(); ++i) {
            _vals[i] = 0.0;
            _booked[i] = false;
        }
    }

  private:
    std::map<std::string, ComponentId> _index; ///< name-sorted
    std::vector<double> _vals;
    /** Has add() ever run for this id? (keeps never-booked
     *  registrations out of the reported component set) */
    std::vector<bool> _booked;
};

} // namespace fusion::energy

#endif // FUSION_ENERGY_ENERGY_LEDGER_HH
