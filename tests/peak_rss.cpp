/**
 * @file
 * peak_rss BUDGET_MB CMD [ARGS...]: run CMD on this process's stdio,
 * print its exit status and peak resident set size on stderr, and
 * fail unless it exits 0 below BUDGET_MB (MiB).
 *
 * A plain fork() from this small process, not a spawn from a large
 * one: Linux carries the spawner's high-water RSS into a vfork()ed
 * child at exec (python's os.posix_spawn reads 13.5 MB for
 * /bin/true), so only a small forking parent lets ru_maxrss show
 * the command's own peak.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "common/parse_number.hh"

int
main(int argc, char **argv)
{
    const auto budget_mb =
        argc > 2 ? pri::parseDecimal<unsigned>(argv[1]) : std::nullopt;
    if (!budget_mb) {
        std::fprintf(stderr, "usage: peak_rss BUDGET_MB CMD [ARGS...]\n");
        return 2;
    }
    const pid_t pid = fork();
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror(argv[2]);
        _exit(127);
    }
    int status = 0;
    rusage ru{};
    if (pid < 0 || wait4(pid, &status, 0, &ru) != pid) {
        std::perror("peak_rss");
        return 2;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    const double peak_mb = ru.ru_maxrss / 1024.0; // Linux reports KiB
    std::fprintf(stderr, "%s: exit %d, peak RSS %.1f MB (budget %u MB)\n",
                 argv[2], code, peak_mb, *budget_mb);
    return code == 0 && peak_mb < *budget_mb ? 0 : 1;
}
