#include "trace.hh"

#include <cstdio>

namespace perfbench {

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

int
Tracer::open(const std::string &name, std::uint64_t run)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.run = run;
    s.start = nowNs();
    done.push_back(std::move(s));
    stack.push_back(static_cast<int>(done.size() - 1));
    return stack.back();
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    done[static_cast<std::size_t>(id)].end = nowNs();
    stack.pop_back();
}

double
Tracer::totalSeconds(const std::string &name, std::size_t from) const
{
    std::int64_t ns = 0;
    for (std::size_t i = from; i < done.size(); ++i) {
        if (done[i].name == name)
            ns += done[i].end - done[i].start;
    }
    return static_cast<double>(ns) / 1e9;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < done.size(); ++i) {
        const Span &s = done[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"run\":%llu}}",
                     i ? ",\n" : "", s.name.c_str(),
                     static_cast<double>(s.start) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     s.parent, static_cast<unsigned long long>(s.run));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
