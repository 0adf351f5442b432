#include "json.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pri::perf
{

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : s(text) {}

    bool
    document(Json &out, std::string &err)
    {
        if (!value(out, 0) || (skipWs(), pos != s.size())) {
            err = "malformed JSON at byte " + std::to_string(pos);
            return false;
        }
        return true;
    }

  private:
    // Nesting cap: the files read are flat; this only stops a
    // malicious input from exhausting the stack.
    static constexpr int kMaxDepth = 64;

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (s.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    bool
    str(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c == '\\') {
                if (pos >= s.size())
                    return false;
                const char e = s[pos++];
                switch (e) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'u': {
                    // Only what jsonQuote writes (control bytes).
                    if (pos + 4 > s.size())
                        return false;
                    const std::string hex(s.substr(pos, 4));
                    pos += 4;
                    c = static_cast<char>(std::strtol(hex.c_str(),
                                                      nullptr, 16));
                    break;
                  }
                  default: c = e; break;
                }
            }
            out += c;
        }
        if (pos >= s.size())
            return false;
        ++pos;
        return true;
    }

    bool
    value(Json &out, int depth)
    {
        if (depth > kMaxDepth)
            return false;
        skipWs();
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '{') {
            out.type = Json::Type::Object;
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            for (;;) {
                skipWs();
                std::pair<std::string, Json> member;
                if (!str(member.first))
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos++] != ':')
                    return false;
                if (!value(member.second, depth + 1))
                    return false;
                out.object.push_back(std::move(member));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                return pos < s.size() && s[pos++] == '}';
            }
        }
        if (c == '[') {
            out.type = Json::Type::Array;
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            for (;;) {
                Json item;
                if (!value(item, depth + 1))
                    return false;
                out.array.push_back(std::move(item));
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                return pos < s.size() && s[pos++] == ']';
            }
        }
        if (c == '"') {
            out.type = Json::Type::String;
            return str(out.string);
        }
        if (literal("true")) {
            out.type = Json::Type::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.type = Json::Type::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        const std::string rest(s.substr(pos, 64));
        char *end = nullptr;
        out.number = std::strtod(rest.c_str(), &end);
        if (end == rest.c_str())
            return false;
        out.type = Json::Type::Number;
        pos += static_cast<size_t>(end - rest.c_str());
        return true;
    }

    std::string_view s;
    size_t pos = 0;
};

} // namespace

const Json *
Json::find(std::string_view key) const
{
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

bool
parseJson(std::string_view text, Json &out, std::string &err)
{
    out = Json{};
    return Parser(text).document(out, err);
}

bool
readJsonFile(const std::string &path, Json &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseJson(text.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

std::string
jsonQuote(std::string_view s)
{
    std::string q = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            q += '\\';
            q += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            q += buf;
        } else {
            q += c;
        }
    }
    return q + "\"";
}

} // namespace pri::perf
