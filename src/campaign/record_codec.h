/**
 * @file
 * The one text codec of serialized task results: checkpoints, the
 * coordinator journal, shard records and worker stats.
 *
 * A document is a magic line ("cyclone-shard-result v4"), then one
 * `key value` line per field, then a "crc xxxxxxxx" trailer (CRC-32
 * of everything before it). Multi-record documents (checkpoints)
 * repeat the record's keys. Parsing is strict: a bad checksum, a
 * wrong magic line, an unknown, duplicate, missing or reordered key,
 * or a number with a sign, trailing characters or overflow throws,
 * and the caller loads nothing. Stats structs serialize through their
 * StatField tables (putFields / KvReader::fields), so a new counter
 * needs no codec edit. Older document versions are rejected by their
 * magic line: every file this codec writes is a regenerable cache.
 */

#ifndef CYCLONE_CAMPAIGN_RECORD_CODEC_H
#define CYCLONE_CAMPAIGN_RECORD_CODEC_H

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/stats.h"

namespace cyclone {

/** A document whose contents failed validation (bad checksum or
 *  malformed text) — quarantine material, distinct from transient
 *  I/O failures. Every parse error of this codec is one. */
struct CorruptSpoolError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Append a trailing "crc xxxxxxxx" line (CRC-32 of everything before
 * it) to a text document. checkCrcLine() verifies and strips it.
 */
std::string withCrcLine(std::string text);

/**
 * Verify and strip the trailing crc line of `text`, returning the
 * payload. Throws (tagged with `what`) if the line is absent,
 * malformed, or does not match the payload.
 */
std::string checkCrcLine(const std::string& text, const char* what);

/** "%016llx" of a 64-bit word. */
std::string formatHex(uint64_t v);

/** "%.17g": round-trips every double exactly. */
std::string formatReal(double v);

/**
 * Parse a whole token as a number: integers in `base`, doubles in
 * decimal or scientific notation. Rejects an empty token, any sign,
 * trailing characters and out-of-range values, naming `what`.
 */
template <typename V>
V
parseNumber(std::string_view token, const char* what, int base = 10)
{
    V v{};
    const char* end = token.data() + token.size();
    std::from_chars_result r{};
    if constexpr (std::is_floating_point_v<V>)
        r = std::from_chars(token.data(), end, v);
    else
        r = std::from_chars(token.data(), end, v, base);
    if (token.empty() || token.front() == '-' || r.ec != std::errc() ||
        r.ptr != end)
        throw CorruptSpoolError(std::string(what) + ": bad number '" +
                                std::string(token) + "'");
    return v;
}

/** Append one "key value" line. */
void putKv(std::string& out, const char* key, const std::string& value);
void putKv(std::string& out, const char* key, uint64_t value);
void putKv(std::string& out, const char* key, double value);

/** Append one line per table row of `obj`. */
template <typename T, typename V, size_t N>
void
putFields(std::string& out, const T& obj,
          const StatField<T, V> (&table)[N])
{
    for (const StatField<T, V>& f : table)
        putKv(out, f.name, obj.*f.member);
}

/**
 * Strict sequential reader of a document: checks the crc trailer and
 * magic line up front, then every read names the key the next line
 * must carry — the order the writer emitted — so an unknown,
 * duplicate or missing key surfaces as a mismatch and throws.
 */
class KvReader
{
  public:
    KvReader(const std::string& text, const char* magic,
             const char* what);

    /** True once every line has been read. */
    bool atEnd() const { return next_ == lines_.size(); }

    /** Read the next line, which must be `key value`; returns value. */
    std::string text(const char* key);

    /** text() parsed by parseNumber(). */
    template <typename V>
    V
    number(const char* key, int base = 10)
    {
        return parseNumber<V>(text(key), what_, base);
    }

    /** Read one line per table row into `obj`. */
    template <typename T, typename V, size_t N>
    void
    fields(T& obj, const StatField<T, V> (&table)[N])
    {
        for (const StatField<T, V>& f : table)
            obj.*f.member = number<V>(f.name);
    }

    /** Throws if any line is left unread. */
    void finish() const;

  private:
    std::vector<std::string> lines_;
    size_t next_ = 0;
    const char* what_;
};

} // namespace cyclone

#endif // CYCLONE_CAMPAIGN_RECORD_CODEC_H
