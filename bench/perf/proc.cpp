#include "proc.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace pri::perf
{

namespace
{

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
        static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
ChildRun::field(std::string_view key) const
{
    for (const auto &l : lines) {
        if (l.size() > key.size() && l.compare(0, key.size(), key) == 0 &&
            l[key.size()] == ' ')
            return l.substr(key.size() + 1);
    }
    return "";
}

double
ChildRun::number(std::string_view key) const
{
    const std::string v = field(key);
    return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

std::vector<std::string>
ChildRun::all(std::string_view key) const
{
    std::vector<std::string> v;
    for (const auto &l : lines) {
        if (l.size() > key.size() && l.compare(0, key.size(), key) == 0 &&
            l[key.size()] == ' ')
            v.push_back(l.substr(key.size() + 1));
    }
    return v;
}

std::string
selfDir()
{
    const std::string exe = selfExe();
    const auto slash = exe.rfind('/');
    return slash == std::string::npos ? "." : exe.substr(0, slash);
}

void
dieWithParent()
{
    prctl(PR_SET_PDEATHSIG, SIGKILL);
}

ChildRun
runChild(const std::vector<std::string> &args)
{
    ChildRun run;
    static const std::string exe = selfExe();

    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "PRI_", 4) != 0)
            envp.push_back(*e);
    envp.push_back(nullptr);

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
        run.how = std::string("pipe: ") + std::strerror(errno);
        return run;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);

    pid_t pid = -1;
    run.spawnNs = nowNs();
    const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        run.how = std::string("posix_spawn: ") + std::strerror(rc);
        return run;
    }

    std::string out;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0) {
            out.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);

    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    run.reapNs = nowNs();
    run.cpuS = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    run.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        run.ok = true;
    } else if (WIFEXITED(status)) {
        run.how = "exit status " + std::to_string(WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
        run.how = std::string("killed by signal ") +
            std::to_string(WTERMSIG(status));
    }

    size_t at = 0;
    while (at < out.size()) {
        size_t nl = out.find('\n', at);
        if (nl == std::string::npos)
            nl = out.size();
        run.lines.push_back(out.substr(at, nl - at));
        at = nl + 1;
    }
    return run;
}

} // namespace pri::perf
