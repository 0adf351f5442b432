#include "common/flight_recorder.hh"

#include <cstring>
#include <unistd.h>

#include "common/strfmt.hh"

namespace pri
{

namespace
{

/** Formatting scratch used by the signal-safe path. */
struct LineBuf
{
    char buf[256];
    size_t len = 0;

    void
    putStr(const char *s)
    {
        while (*s != '\0' && len < sizeof(buf) - 1)
            buf[len++] = *s++;
    }

    void
    putU64(uint64_t v)
    {
        char digits[24];
        size_t n = 0;
        do {
            digits[n++] = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v != 0);
        while (n > 0 && len < sizeof(buf) - 1)
            buf[len++] = digits[--n];
    }

    void
    putHex(uint64_t v)
    {
        putStr("0x");
        char digits[18];
        size_t n = 0;
        do {
            const unsigned d = v & 0xf;
            digits[n++] = static_cast<char>(
                d < 10 ? '0' + d : 'a' + (d - 10));
            v >>= 4;
        } while (v != 0);
        while (n > 0 && len < sizeof(buf) - 1)
            buf[len++] = digits[--n];
    }

    void
    flush(int fd)
    {
        if (len > 0) {
            // Best effort: nothing useful to do on a short write
            // from a crash handler.
            [[maybe_unused]] ssize_t rc = ::write(fd, buf, len);
        }
        len = 0;
    }
};

void
formatRecord(LineBuf &line, const FlightRecorder::Record &r)
{
    line.putStr("  cycle ");
    line.putU64(r.cycle);
    line.putStr("  ");
    line.putStr(flightEventName(r.ev));
    line.putStr("  gidx ");
    line.putU64(r.gidx);
    line.putStr("  pc ");
    line.putHex(r.pc);
    line.putStr("  arg ");
    line.putU64(r.arg);
    line.putStr("\n");
}

} // namespace

const char *
flightEventName(FlightEvent ev)
{
    switch (ev) {
      case FlightEvent::Fetch:  return "fetch ";
      case FlightEvent::Rename: return "rename";
      case FlightEvent::Issue:  return "issue ";
      case FlightEvent::Replay: return "replay";
      case FlightEvent::Commit: return "commit";
      case FlightEvent::Squash: return "squash";
      case FlightEvent::Note:   return "note  ";
    }
    return "?";
}

void
FlightRecorder::clear()
{
    head = 0;
    ctxBuf[0] = '\0';
}

void
FlightRecorder::setContext(const char *ctx)
{
    std::strncpy(ctxBuf.data(), ctx, ctxBuf.size() - 1);
    ctxBuf[ctxBuf.size() - 1] = '\0';
}

std::string
FlightRecorder::dump(size_t maxEvents) const
{
    std::string out = "flight recorder";
    if (ctxBuf[0] != '\0') {
        out += " [";
        out += ctxBuf.data();
        out += "]";
    }
    if (head == 0) {
        out += ": no events recorded\n";
        return out;
    }
    const uint64_t kept = head < kCapacity ? head : kCapacity;
    const uint64_t show =
        kept < maxEvents ? kept : static_cast<uint64_t>(maxEvents);
    out += fmtStr(": last {} of {} events (oldest first):\n", show,
                  head);
    for (uint64_t k = head - show; k < head; ++k) {
        LineBuf line;
        formatRecord(line, ring[k & (kCapacity - 1)]);
        out.append(line.buf, line.len);
    }
    return out;
}

void
FlightRecorder::dumpTo(int fd, size_t maxEvents) const
{
    LineBuf line;
    line.putStr("flight recorder");
    if (ctxBuf[0] != '\0') {
        line.putStr(" [");
        line.putStr(ctxBuf.data());
        line.putStr("]");
    }
    if (head == 0) {
        line.putStr(": no events recorded\n");
        line.flush(fd);
        return;
    }
    const uint64_t kept = head < kCapacity ? head : kCapacity;
    const uint64_t show =
        kept < maxEvents ? kept : static_cast<uint64_t>(maxEvents);
    line.putStr(": last ");
    line.putU64(show);
    line.putStr(" of ");
    line.putU64(head);
    line.putStr(" events (oldest first):\n");
    line.flush(fd);
    for (uint64_t k = head - show; k < head; ++k) {
        formatRecord(line, ring[k & (kCapacity - 1)]);
        line.flush(fd);
    }
}

FlightRecorder &
flightRecorder()
{
    static thread_local FlightRecorder recorder;
    return recorder;
}

} // namespace pri
