/**
 * @file
 * The audited on-disk serialization of sweep results: one PRIJ3
 * line per completed RunResult, keyed by its paramsHash(). The
 * sweep journal (sim/journal.hh) is the only cache that stores
 * them; bench/perf digests and tests/test_sched_wakeup.cpp hash the
 * same lines, so the format is pinned byte for byte.
 *
 * A line is tab-separated and ends in a "." sentinel, so a torn
 * write (SIGKILL mid-append) fails to parse and the loader skips
 * it. Doubles are written in hexfloat (%a) so they round-trip
 * bit-exactly; the stats report rides along with newlines/tabs
 * escaped.
 *
 * Parsing is split in two so the journal does each step once: the
 * strict parse of every field but the report (parseResultFields),
 * which the journal runs per line when it opens or appends, and the
 * report unescape (unescapeReport), which it runs per hit.
 * parseResultLine is both.
 *
 * The parser is strict: it splits a line into exactly 25 views and
 * reads every number with std::from_chars, accepting only the digit
 * forms formatResultLine() writes — decimal without sign or leading
 * zero and in range (width must fit an unsigned), exactly 16
 * lowercase hex digits for the key and archSig, and %a hexfloats
 * or [-]inf/[-]nan with nothing after them. A corrupted line is a
 * miss that reruns, never a wrong cache hit.
 *
 * The metrics come from sim::kResultCounts and sim::kResultRates.
 * Changing either table requires bumping the tag, which is the
 * version stamp that makes old journals miss cleanly, and updating
 * the list tests/test_runner.cpp pins.
 */

#ifndef PRI_SIM_RESULT_CODEC_HH
#define PRI_SIM_RESULT_CODEC_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "sim/simulation.hh"

namespace pri::sim::codec
{

/** Result-line format tag; bump when the RunResult field list
 *  changes (invalidates existing journals cleanly). */
constexpr const char *kResultTag = "PRIJ3";

/** Result-line fields: tag, key, benchmark, scheme, width, the
 *  kResultCounts in decimal, the kResultRates in hexfloat, archSig,
 *  report, "." sentinel. */
constexpr size_t kResultFields =
    5 + std::size(kResultCounts) + std::size(kResultRates) + 3;

/** One PRIJ3 line (newline-terminated) for @p key / @p r. */
std::string formatResultLine(uint64_t key, const RunResult &r);

/**
 * Parse every field of one PRIJ3 line but the report: @p key, every
 * RunResult field of @p r except `report` (left as it was), and the
 * report still escaped, as a view into @p line. One trailing
 * newline is tolerated. Returns false (leaving the outputs
 * untouched garbage) for anything malformed — most importantly the
 * torn final line of a file whose writer was SIGKILLed mid-write.
 */
bool parseResultFields(std::string_view line, uint64_t &key,
                       RunResult &r, std::string_view &escapedReport);

/** The report field parseResultFields() returned, unescaped. */
std::string unescapeReport(std::string_view escaped);

/** parseResultFields() plus unescapeReport() into `r.report`. */
bool parseResultLine(std::string_view line, uint64_t &key,
                     RunResult &r);

} // namespace pri::sim::codec

#endif // PRI_SIM_RESULT_CODEC_HH
