/**
 * @file
 * The host side of a simulated system: DRAM, the NUCA LLC with its
 * MESI directory, the host L1 and its link to the LLC, and the host
 * core. The core is the same accel::ReplayCore the accelerators run;
 * it issues through HostPort, which translates with the page table
 * and calls HostL1::access.
 *
 * core::System and core::hostProfile both build their host side
 * here. The members construct in declaration order, which fixes the
 * stats, ledger and guard registration order the goldens pin.
 */

#ifndef FUSION_CORE_HOST_TILE_HH
#define FUSION_CORE_HOST_TILE_HH

#include <vector>

#include "accel/replay_core.hh"
#include "core/system_config.hh"
#include "host/host_l1.hh"
#include "host/llc.hh"
#include "interconnect/link.hh"
#include "mem/dram.hh"
#include "vm/page_table.hh"

namespace fusion::core
{

/** The host core's memory port: virtual address -> host L1. */
class HostPort final : public accel::MemPort
{
  public:
    HostPort(host::HostL1 &l1, const vm::PageTable &pt, Pid pid)
        : _l1(l1), _pt(pt), _pid(pid)
    {
    }

    void
    access(Addr va, std::uint32_t, bool is_write,
           accel::PortDone done) override
    {
        _l1.access(_pt.translate(_pid, va), is_write, done);
    }

  private:
    host::HostL1 &_l1;
    const vm::PageTable &_pt;
    Pid _pid;
};

/** DRAM, LLC, host L1 and host core, wired for one process with
 *  Table 2's parameters. */
struct HostTile
{
    HostTile(SimContext &ctx, const vm::PageTable &pt, Pid pid)
        : dram(ctx, mem::DramParams{}), llc(ctx, host::LlcParams{}, dram),
          link(ctx, interconnect::LinkParams{
                        "hostl1_l2", energy::LinkClass::HostL1ToL2, 2,
                        energy::comp::kLinkHostL1L2,
                        energy::comp::kLinkHostL1L2}),
          l1(ctx,
             host::HostL1Params{.capacityBytes = kHostL1Bytes,
                                .assoc = kHostL1Assoc,
                                .energyComponent = {}},
             llc, &link),
          port(l1, pt, pid),
          core(ctx, accel::ReplayCoreParams{
                        .name = "host.core",
                        .computeComponent = {},
                        .width = kHostIssueWidth,
                        .storeBuffer = kHostStoreQueue})
    {
    }

    HostTile(const HostTile &) = delete;
    HostTile &operator=(const HostTile &) = delete;

    /** Replay @p ops on the host core; @p done fires when the last
     *  op commits. */
    void
    run(const std::vector<trace::TraceOp> &ops,
        sim::SmallFn<void()> done)
    {
        core.run(ops, 0, ops.size(), kHostMaxLoads, port,
                 std::move(done));
    }

    mem::Dram dram;
    host::Llc llc;
    interconnect::Link link;
    host::HostL1 l1;
    HostPort port;
    accel::ReplayCore core;
};

} // namespace fusion::core

#endif // FUSION_CORE_HOST_TILE_HH
