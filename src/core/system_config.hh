/**
 * @file
 * Public configuration of the four systems the paper compares
 * (Section 4, "Systems compared"), with defaults from Table 2.
 */

#ifndef FUSION_CORE_SYSTEM_CONFIG_HH
#define FUSION_CORE_SYSTEM_CONFIG_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/cache_array.hh"
#include "obs/obs_config.hh"
#include "sim/guard/guard_config.hh"
#include "sim/types.hh"

namespace fusion::core
{

/** The four evaluated organizations, plus the dynamic selector. */
enum class SystemKind
{
    Scratch,    ///< per-accelerator scratchpads + oracle DMA
    Shared,     ///< one shared L1X per tile, full MESI participant
    Fusion,     ///< private L0Xs + shared L1X under ACC
    FusionDx,   ///< FUSION + direct L0X->L0X write forwarding
    FusionMesi, ///< FUSION geometry with a conventional directory
                ///< MESI protocol inside the tile (the design ACC
                ///< is argued against; see docs/PROTOCOL.md)
    Auto        ///< per-invocation mode selection by the
                ///< orchestrator (src/orchestrator/): it builds
                ///< SCRATCH, FUSION and FUSION-Dx, and a threshold
                ///< rule picks one per invocation, paying a
                ///< modeled flush/DMA cost on each switch
};

/** Number of *static* organizations (excludes Auto). */
inline constexpr std::size_t kNumStaticSystemKinds = 5;

/** The five static organizations, in enum order. */
inline constexpr SystemKind kStaticSystemKinds[kNumStaticSystemKinds] = {
    SystemKind::Scratch, SystemKind::Shared, SystemKind::Fusion,
    SystemKind::FusionDx, SystemKind::FusionMesi};

/** Short display name used in tables ("SC", "SH", "FU", "FU-Dx"). */
const char *systemKindShortName(SystemKind k);
/** Full display name ("SCRATCH", ...). */
const char *systemKindName(SystemKind k);
/** Canonical CLI spelling ("scratch", "fusion-dx", "auto", ...). */
const char *systemKindCliName(SystemKind k);

/**
 * Parse a CLI spelling of a system kind. Accepts the canonical long
 * names (auto|scratch|shared|fusion|fusion-dx|fusion-mesi), the
 * short table names from systemKindShortName (sc|sh|fu|fu-dx|fu-m|au)
 * and the full display names ("FUSION-MESI"); matching is
 * case-insensitive. Returns nullopt for anything else.
 */
std::optional<SystemKind> parseSystemKind(std::string_view name);

// The host side and the replay datapaths are Table 2's and no
// experiment varies them, so they are constants, not SystemConfig
// knobs. The LLC and DRAM are host::LlcParams{} and
// mem::DramParams{}, whose defaults are Table 2's.

/** Host L1: 64 KB, 4-way (Table 2). */
inline constexpr std::uint64_t kHostL1Bytes = 64 * 1024;
inline constexpr std::uint32_t kHostL1Assoc = 4;

/** Host core (Table 2: 2 GHz 4-way OOO, 96-entry ROB, 32-entry
 *  load/store queues), replayed on an accel::ReplayCore. */
inline constexpr std::uint32_t kHostIssueWidth = 4; ///< compute ops/cycle
inline constexpr std::uint32_t kHostMaxLoads = 16;  ///< in-flight loads
inline constexpr std::uint32_t kHostStoreQueue = 32;

/** Accelerator datapath: compute ops retired per cycle and
 *  store-buffer entries of each accelerator's replay core. */
inline constexpr std::uint32_t kDatapathWidth = 4;
inline constexpr std::uint32_t kAccelStoreBuffer = 16;

/** Complete system configuration. */
struct SystemConfig
{
    SystemKind kind = SystemKind::Fusion;

    // Accelerator tile (Table 2, "Accelerator Cache Hierarchy").
    std::uint64_t scratchpadBytes = 4 * 1024;
    std::uint64_t l0xBytes = 4 * 1024;
    std::uint32_t l0xAssoc = 4;
    mem::ReplPolicy l0xRepl = mem::ReplPolicy::Lru;
    std::uint64_t l1xBytes = 64 * 1024;
    std::uint32_t l1xAssoc = 8;
    std::uint32_t l1xBanks = 16;
    bool l0xWriteThrough = false;

    /// Overlap data-independent invocations on different
    /// accelerators (the concurrency the paper's Figure 5 timeline
    /// depicts). Dependences come from trace analysis
    /// (trace::invocationDependences); SCRATCH always runs serial
    /// (one DMA engine). Off by default: the paper's headline
    /// numbers assume strictly sequential offload.
    bool overlapInvocations = false;
    /// Number of accelerator tiles (FUSION/FUSION-Dx). The paper
    /// collocates every function of an application on one tile;
    /// splitting across tiles forces inter-accelerator sharing
    /// through the host LLC and quantifies the collocation benefit.
    std::uint32_t numTiles = 1;
    /// Concurrent line transactions of the coherent DMA engine
    /// (ACP/PowerBus-style engines pipeline only a couple of
    /// coherent line transactions).
    std::uint32_t dmaMaxOutstanding = 2;
    /// Hardening layer: watchdog budgets, periodic invariant
    /// checking, fault injection (docs/HARDENING.md). All off by
    /// default — a default run is byte-identical with or without
    /// the guard subsystem compiled in.
    guard::GuardConfig guard;
    /// Telemetry: span tracing, interval metrics, latency digests
    /// (docs/OBSERVABILITY.md). All off by default — a default run's
    /// serialized output is byte-identical with telemetry compiled
    /// in but disarmed.
    obs::ObsConfig obs;

    /**
     * Check the configuration for structural mistakes (non-power-
     * of-two cache sizes, zero banks/tiles/assoc, capacities that
     * cannot hold a single set, ...). Returns one human-readable
     * message per problem; empty means the config is runnable.
     * runProgram() and the sweep engine call this and refuse to
     * simulate a misconfigured system, so a bad knob fails loudly
     * instead of producing silently wrong numbers.
     */
    std::vector<std::string> validate() const;

    /** Named parameter presets (Table 2 and Section 5.5). */
    enum class Preset
    {
        Paper,   ///< the paper's default Table 2 configuration
        AxcLarge ///< Section 5.5 "AXC-Large": 8 KB L0X (and
                 ///< scratchpad) with a 256 KB L1X
    };

    /** The canonical factory: @p preset parameters for @p kind. */
    static SystemConfig preset(Preset preset, SystemKind kind);

    /**
     * Stable identity of this configuration: FNV-1a over every
     * user-settable knob in a fixed, documented field order
     * (DESIGN.md §10). Two configs hash equal iff they would
     * configure identical systems — the hash is value-based, so a
     * field left at its default and a field explicitly assigned the
     * default value are indistinguishable, and it is independent of
     * construction order, process, and platform. Together with the
     * trace content hash it keys the sweep result cache
     * (sweep::ResultCache), so EVERY knob that can change simulated
     * output must be folded in; tests/test_result_cache.cc walks
     * all of them. kConfigHashVersion salts the hash — bump it when
     * adding a field so stale cache entries can never alias.
     */
    std::uint64_t canonicalHash() const;

    /** Salt/version of canonicalHash(); bump on any field change. */
    static constexpr std::uint32_t kConfigHashVersion = 4;
};

/** CLI spelling of a preset ("paper", "axc-large"). */
const char *presetName(SystemConfig::Preset p);

} // namespace fusion::core

#endif // FUSION_CORE_SYSTEM_CONFIG_HH
