#include "journal.hh"

#include <csignal>
#include <cstdlib>

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
    std::FILE *in = std::fopen(filePath.c_str(), "r");
    if (in == nullptr)
        return; // fresh journal
    std::string line;
    size_t skipped = 0;
    int c;
    while ((c = std::fgetc(in)) != EOF) {
        if (c != '\n') {
            line += static_cast<char>(c);
            continue;
        }
        uint64_t key = 0;
        RunResult r;
        if (codec::parseResultLine(line, key, r)) {
            if (entries.emplace(key, std::move(r)).second)
                ++loaded;
        } else {
            ++skipped;
        }
        line.clear();
    }
    // A trailing fragment with no newline is the classic torn write;
    // count it with the malformed lines and let the point rerun.
    if (!line.empty()) {
        ++skipped;
        tornTail = true;
    }
    std::fclose(in);
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
    const auto it = entries.find(key);
    if (it == entries.end())
        return false;
    out = it->second;
    return true;
}

void
SweepJournal::record(uint64_t key, const RunResult &result)
{
    if (!enabled())
        return;
    const std::string line = codec::formatResultLine(key, result);
    std::lock_guard<std::mutex> lock(mu);
    if (!entries.emplace(key, result).second)
        return; // duplicate point already persisted
    if (tornTail) {
        std::fputc('\n', file);
        tornTail = false;
    }
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
