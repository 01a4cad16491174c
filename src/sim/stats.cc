#include "sim/stats.hh"

#include <iomanip>
#include <string_view>

namespace fusion::stats
{

namespace
{

/** One dump entry: a counter or a histogram, split at its dots. */
struct DumpEntry
{
    const std::string *path;
    bool histogram;
    std::vector<std::string_view> parts;
};

std::vector<std::string_view>
splitPath(std::string_view path)
{
    std::vector<std::string_view> parts;
    for (std::size_t dot; (dot = path.find('.')) != path.npos;
         path.remove_prefix(dot + 1))
        parts.push_back(path.substr(0, dot));
    parts.push_back(path);
    return parts;
}

/** Tree order: at each level a group's counters, then its
 *  histograms, then its subgroups, each by name. */
bool
treeLess(const DumpEntry &a, const DumpEntry &b)
{
    for (std::size_t i = 0;; ++i) {
        bool a_leaf = i + 1 == a.parts.size();
        bool b_leaf = i + 1 == b.parts.size();
        if (a_leaf != b_leaf)
            return a_leaf;
        if (a_leaf && a.histogram != b.histogram)
            return b.histogram;
        if (a_leaf || a.parts[i] != b.parts[i])
            return a.parts[i] < b.parts[i];
    }
}

} // namespace

std::uint64_t
Registry::value(const std::string &path) const
{
    auto it = _counters.find(path);
    fusion_assert(it != _counters.end(), "no counter at ", path);
    std::uint64_t sum = 0;
    for (const std::uint64_t *c : it->second)
        sum += *c;
    return sum;
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    for (const auto &[path, cs] : _counters)
        out.push_back(path);
    for (const auto &[path, h] : _histograms)
        out.push_back(path);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
Registry::dump(std::ostream &os) const
{
    std::vector<DumpEntry> entries;
    for (const auto &[path, cs] : _counters)
        entries.push_back({&path, false, splitPath(path)});
    for (const auto &[path, h] : _histograms)
        entries.push_back({&path, true, splitPath(path)});
    std::sort(entries.begin(), entries.end(), treeLess);

    os << std::setprecision(12);
    for (const DumpEntry &e : entries) {
        const std::string &p = *e.path;
        if (!e.histogram) {
            os << "sim." << p << " " << value(p) << "\n";
            continue;
        }
        const Histogram &h = _histograms.at(p);
        os << "sim." << p << ".samples " << h.samples() << "\n";
        os << "sim." << p << ".mean " << h.mean() << "\n";
        os << "sim." << p << ".min " << h.minValue() << "\n";
        os << "sim." << p << ".max " << h.maxValue() << "\n";
    }
}

} // namespace fusion::stats
