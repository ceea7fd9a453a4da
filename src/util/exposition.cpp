#include "util/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mltc {

namespace {

bool
legalNameChar(char c, bool first, bool allow_colon)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_')
        return true;
    if (c == ':' && allow_colon)
        return true;
    return !first && c >= '0' && c <= '9';
}

std::string
sanitizeName(const std::string &name, bool allow_colon)
{
    std::string out;
    out.reserve(name.size());
    for (size_t i = 0; i < name.size(); ++i) {
        const char c = name[i];
        out += legalNameChar(c, out.empty(), allow_colon) ? c : '_';
    }
    if (out.empty())
        out.push_back('_'); // `out = "_"` trips GCC 12 -Wrestrict
    return out;
}

} // namespace

std::string
expositionMetricName(const std::string &name)
{
    return "mltc_" + sanitizeName(name, true);
}

std::string
expositionLabelName(const std::string &name)
{
    return sanitizeName(name, false);
}

std::string
expositionLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

std::string
expositionValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    // Shortest round-trip: try increasing precision until strtod gives
    // the exact bits back, so 0.15 renders "0.15" rather than the
    // %.17g tail, and every scrape of the same state is byte-equal.
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
expositionValue(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
expositionLabels(
    const std::vector<std::pair<std::string, std::string>> &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ',';
        out += expositionLabelName(labels[i].first);
        out += "=\"";
        out += expositionLabelValue(labels[i].second);
        out += '"';
    }
    out += '}';
    return out;
}

} // namespace mltc
