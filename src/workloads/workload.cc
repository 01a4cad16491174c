#include "workloads/workload.hh"

#include <algorithm>
#include <iterator>
#include <map>

#include "sim/logging.hh"
#include "trace/store.hh"

namespace fusion::workloads
{

const char *
scaleName(Scale s)
{
    switch (s) {
      case Scale::Small:
        return "small";
      case Scale::Paper:
        return "paper";
      case Scale::Large:
        return "large";
    }
    return "?";
}

// Factories defined in the per-benchmark translation units.
std::unique_ptr<Workload> makeFft();
std::unique_ptr<Workload> makeDisparity();
std::unique_ptr<Workload> makeTracking();
std::unique_ptr<Workload> makeAdpcm();
std::unique_ptr<Workload> makeSusan();
std::unique_ptr<Workload> makeFilter();
std::unique_ptr<Workload> makeHistogram();

namespace
{

/** Extra factories added via registerWorkload (test seam). */
std::map<std::string, std::unique_ptr<Workload> (*)()> &
registeredWorkloads()
{
    static std::map<std::string, std::unique_ptr<Workload> (*)()>
        reg;
    return reg;
}

/** Built-in workload names, in the paper's presentation order. */
constexpr const char *kBuiltIn[] = {"fft",   "disparity", "tracking",
                                    "adpcm", "susan",     "filter",
                                    "histogram"};

/** The global trace store when @p name may be recorded and
 *  replayed: a built-in workload registerWorkload has not
 *  overridden. Registered test workloads are seams whose build()
 *  side effects (e.g. deliberately throwing) must keep happening. */
trace::TraceStore *
replayStore(const std::string &name)
{
    if (registeredWorkloads().count(name) != 0 ||
        std::find(std::begin(kBuiltIn), std::end(kBuiltIn), name) ==
            std::end(kBuiltIn))
        return nullptr;
    return trace::globalStore();
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names(std::begin(kBuiltIn),
                                   std::end(kBuiltIn));
    for (const auto &[name, factory] : registeredWorkloads())
        names.push_back(name);
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fft")
        return makeFft();
    if (name == "disparity")
        return makeDisparity();
    if (name == "tracking")
        return makeTracking();
    if (name == "adpcm")
        return makeAdpcm();
    if (name == "susan")
        return makeSusan();
    if (name == "filter")
        return makeFilter();
    if (name == "histogram")
        return makeHistogram();
    auto &reg = registeredWorkloads();
    auto it = reg.find(name);
    if (it != reg.end())
        return it->second();
    return nullptr;
}

void
registerWorkload(const std::string &name,
                 std::unique_ptr<Workload> (*factory)())
{
    auto &reg = registeredWorkloads();
    if (factory)
        reg[name] = factory;
    else
        reg.erase(name);
}

std::optional<trace::Program>
buildProgram(const std::string &name, Scale scale)
{
    if (auto stored = storedTrace(name, scale)) {
        if (auto replayed = stored->decode()) {
            DPRINTFN("CACHE", "trace replay: ", name, "/",
                     scaleName(scale), " from ", stored->path);
            return replayed;
        }
    }
    return generateProgram(name, scale);
}

std::optional<trace::StoredTrace>
storedTrace(const std::string &name, Scale scale)
{
    trace::TraceStore *store = replayStore(name);
    return store ? store->open(name, scale) : std::nullopt;
}

std::optional<trace::Program>
generateProgram(const std::string &name, Scale scale)
{
    auto w = makeWorkload(name);
    if (!w)
        return std::nullopt;
    trace::Program prog = w->build(scale);
    if (trace::TraceStore *store = replayStore(name))
        store->store(name, scale, prog);
    return prog;
}

} // namespace fusion::workloads
