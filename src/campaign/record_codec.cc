#include "campaign/record_codec.h"

#include <cstdio>
#include <sstream>

#include "common/crc32.h"

namespace cyclone {

std::string
withCrcLine(std::string text)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", crc32(text));
    text += "crc ";
    text += buf;
    text += "\n";
    return text;
}

std::string
checkCrcLine(const std::string& text, const char* what)
{
    size_t pos = text.rfind("\ncrc ");
    if (pos != std::string::npos) {
        pos += 1;
    } else if (text.rfind("crc ", 0) == 0) {
        pos = 0;
    } else {
        throw CorruptSpoolError(std::string(what) +
                                ": missing crc line (truncated?)");
    }
    std::string_view word(text);
    word.remove_prefix(pos + 4);
    if (!word.empty() && word.back() == '\n')
        word.remove_suffix(1);
    const uint32_t want = parseNumber<uint32_t>(word, what, 16);
    const std::string payload = text.substr(0, pos);
    if (crc32(payload) != want)
        throw CorruptSpoolError(std::string(what) +
                                ": checksum mismatch");
    return payload;
}

std::string
formatHex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
formatReal(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
putKv(std::string& out, const char* key, const std::string& value)
{
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

void
putKv(std::string& out, const char* key, uint64_t value)
{
    putKv(out, key, std::to_string(value));
}

void
putKv(std::string& out, const char* key, double value)
{
    putKv(out, key, formatReal(value));
}

KvReader::KvReader(const std::string& text, const char* magic,
                   const char* what)
    : what_(what)
{
    // Version first, so an older document is reported as such.
    const std::string first = text.substr(0, text.find('\n'));
    if (first != magic)
        throw CorruptSpoolError(std::string(what) + ": expected '" +
                                magic + "', got '" +
                                first.substr(0, 64) + "'");
    std::istringstream in(checkCrcLine(text, what));
    std::string line;
    std::getline(in, line); // the magic line, checked above
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        lines_.push_back(line);
    }
}

std::string
KvReader::text(const char* key)
{
    const std::string_view want(key);
    if (atEnd())
        throw CorruptSpoolError(std::string(what_) + ": missing key '" +
                                key + "'");
    const std::string& line = lines_[next_++];
    if (line.compare(0, want.size(), want) != 0 ||
        line.size() <= want.size() || line[want.size()] != ' ')
        throw CorruptSpoolError(std::string(what_) + ": expected key '" +
                                key + "', got line '" + line + "'");
    return line.substr(want.size() + 1);
}

void
KvReader::finish() const
{
    if (!atEnd())
        throw CorruptSpoolError(std::string(what_) +
                                ": unexpected line '" + lines_[next_] +
                                "'");
}

} // namespace cyclone
