#include "journal.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>

#include "common/logging.hh"
#include "sim/result_codec.hh"

namespace pri::sim
{

void
UnmapJournal::operator()(const char *bytes) const
{
    ::munmap(const_cast<char *>(bytes), size);
}

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
    const int fd = ::open(filePath.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return; // fresh journal
    struct stat st{};
    const size_t size =
        ::fstat(fd, &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
    void *bytes = size == 0
        ? MAP_FAILED
        : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                 fd, 0);
    ::close(fd);
    if (size == 0)
        return; // empty: nothing to map
    if (bytes == MAP_FAILED)
        fatal("cannot map journal '{}'", filePath);
    mapped = {static_cast<const char *>(bytes), UnmapJournal{size}};

    const std::string_view all(mapped.get(), size);
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
        uint64_t key = 0;
        Entry e;
        if (!codec::parseResultFields(all.substr(pos, nl - pos), key,
                                      e.fields, e.report))
            ++skipped;
        else if (index.try_emplace(key, std::move(e)).second)
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
    out = it->second.fields;
    out.report = codec::unescapeReport(it->second.report);
    return true;
}

void
SweepJournal::record(uint64_t key, const RunResult &result)
{
    if (!enabled())
        return;
    std::string line = codec::formatResultLine(key, result);
    std::lock_guard<std::mutex> lock(mu);
    if (index.count(key) != 0)
        return; // duplicate point already persisted
    if (tornTail) {
        std::fputc('\n', file);
        tornTail = false;
    }
    std::fwrite(line.data(), 1, line.size(), file);
    std::fflush(file);
    // Indexed from the stored line exactly as a reload would index
    // it, so the point reads back the same either way.
    const std::string &stored = appendStore.emplace_back(std::move(line));
    uint64_t parsed = 0;
    Entry e;
    if (codec::parseResultFields(stored, parsed, e.fields, e.report))
        index.try_emplace(key, std::move(e));
    ++appended;
    if (killAfter != 0 && appended >= killAfter) {
        // CI crash-drill hook: die the hard way (no destructors, no
        // handlers) right after this point hit the disk.
        std::raise(SIGKILL);
    }
}

} // namespace pri::sim
