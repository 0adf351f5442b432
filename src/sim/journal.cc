#include "journal.hh"

#include <csignal>
#include <cstdlib>
#include <string_view>

#include "common/logging.hh"
#include "sim/result_codec.hh"

namespace pri::sim
{

SweepJournal::SweepJournal(std::string path)
    : filePath(std::move(path))
{
    if (filePath.empty())
        return;
    if (const char *k = std::getenv("PRI_JOURNAL_KILL_AFTER"))
        killAfter = std::strtoull(k, nullptr, 10);
    load();
    file = std::fopen(filePath.c_str(), "a");
    if (file == nullptr)
        fatal("cannot open journal '{}' for append", filePath);
}

SweepJournal::~SweepJournal()
{
    if (file != nullptr)
        std::fclose(file);
}

void
SweepJournal::load()
{
    std::FILE *in = std::fopen(filePath.c_str(), "rb");
    if (in == nullptr)
        return; // fresh journal
    // One read into a buffer sized once from the file.
    if (std::fseek(in, 0, SEEK_END) == 0) {
        const long size = std::ftell(in);
        if (size > 0) {
            bytes.resize(static_cast<size_t>(size));
            std::rewind(in);
            bytes.resize(std::fread(bytes.data(), 1, bytes.size(), in));
        }
    }
    std::fclose(in);

    const std::string_view all(bytes);
    size_t skipped = 0;
    size_t pos = 0;
    while (pos < all.size()) {
        const size_t nl = all.find('\n', pos);
        if (nl == std::string_view::npos) {
            // A trailing fragment with no newline is the classic torn
            // write; count it with the malformed lines and let the
            // point rerun.
            ++skipped;
            tornTail = true;
            break;
        }
        const std::string_view line = all.substr(pos, nl - pos);
        uint64_t key = 0;
        if (!codec::validateResultLine(line, key))
            ++skipped;
        else if (index.emplace(key, Span{pos, line.size()}).second)
            ++loaded; // else a later duplicate: the first line wins
        pos = nl + 1;
    }
    if (skipped > 0) {
        std::fprintf(stderr,
                     "journal '%s': skipped %zu incomplete line%s "
                     "(those points will rerun)\n",
                     filePath.c_str(), skipped,
                     skipped == 1 ? "" : "s");
    }
}

bool
SweepJournal::lookup(uint64_t key, RunResult &out) const
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lock(mu);
    const auto it = index.find(key);
    if (it == index.end())
        return false;
    // Parsed under the lock: a concurrent record() may reallocate
    // `bytes`.
    const Span span = it->second;
    uint64_t parsed = 0;
    return codec::parseResultLine(
        std::string_view(bytes).substr(span.offset, span.length), parsed,
        out);
}

void
SweepJournal::record(uint64_t key, const RunResult &result)
{
    if (!enabled())
        return;
    const std::string line = codec::formatResultLine(key, result);
    std::lock_guard<std::mutex> lock(mu);
    if (index.count(key) != 0)
        return; // duplicate point already persisted
    if (tornTail) {
        std::fputc('\n', file);
        bytes += '\n';
        tornTail = false;
    }
    index.emplace(key, Span{bytes.size(), line.size() - 1});
    bytes += line;
    std::fwrite(line.data(), 1, line.size(), file);
    std::fflush(file);
    ++appended;
    if (killAfter != 0 && appended >= killAfter) {
        // CI crash-drill hook: die the hard way (no destructors, no
        // handlers) right after this point hit the disk.
        std::raise(SIGKILL);
    }
}

} // namespace pri::sim
