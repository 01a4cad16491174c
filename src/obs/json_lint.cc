/**
 * @file
 * Recursive-descent JSON validator (values only, no DOM).
 */

#include "obs/json_lint.hh"

#include <cctype>
#include <cstdio>

namespace fusion::obs
{

namespace
{

struct Parser
{
    explicit Parser(std::string_view t) : text(t) {}

    std::string_view text;
    std::size_t pos = 0;
    std::string reason;
    // Traces and reports nest shallowly; a generous depth cap keeps
    // adversarial input from overflowing the stack.
    int depth = 0;
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *why)
    {
        if (reason.empty()) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s at offset %zu", why, pos);
            reason = buf;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size()) {
            char c = text[pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos;
            else
                break;
        }
    }

    bool
    eat(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return fail("expected string");
        while (pos < text.size()) {
            unsigned char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos >= text.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(text[pos])))
                            return fail("bad \\u escape");
                        ++pos;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return fail("bad escape");
                }
            } else if (c < 0x20) {
                return fail("raw control char in string");
            }
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        eat('-');
        if (!(pos < text.size() &&
              std::isdigit(static_cast<unsigned char>(text[pos]))))
            return fail("bad number");
        if (text[pos] == '0') {
            ++pos;
        } else {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (eat('.')) {
            if (!(pos < text.size() &&
                  std::isdigit(static_cast<unsigned char>(text[pos]))))
                return fail("bad fraction");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (!(pos < text.size() &&
                  std::isdigit(static_cast<unsigned char>(text[pos]))))
                return fail("bad exponent");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        return true;
    }

    bool
    value()
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        bool ok;
        switch (text[pos]) {
          case '{':
            ok = object();
            break;
          case '[':
            ok = array();
            break;
          case '"':
            ok = string();
            break;
          case 't':
            ok = literal("true");
            break;
          case 'f':
            ok = literal("false");
            break;
          case 'n':
            ok = literal("null");
            break;
          default:
            ok = number();
        }
        --depth;
        return ok;
    }

    bool
    object()
    {
        eat('{');
        skipWs();
        if (eat('}'))
            return true;
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':'))
                return fail("expected ':'");
            if (!value())
                return false;
            skipWs();
            if (eat(','))
                continue;
            if (eat('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    array()
    {
        eat('[');
        skipWs();
        if (eat(']'))
            return true;
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (eat(','))
                continue;
            if (eat(']'))
                return true;
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

bool
jsonParses(std::string_view text, std::string *err)
{
    Parser p(text);
    if (!p.value()) {
        if (err)
            *err = p.reason;
        return false;
    }
    p.skipWs();
    if (p.pos != p.text.size()) {
        if (err) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "trailing data at offset %zu",
                          p.pos);
            *err = buf;
        }
        return false;
    }
    return true;
}

} // namespace fusion::obs
