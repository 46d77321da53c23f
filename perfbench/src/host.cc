#include "host.h"

#include <cstdio>
#include <thread>

#include <unistd.h>

#include "simd/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

unsigned
hostCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? unsigned(n) : std::thread::hardware_concurrency();
}

} // namespace

std::string
hostJsonFields()
{
#if defined(__clang__)
    const char *compiler = "clang";
#elif defined(__GNUC__)
    const char *compiler = "gcc";
#else
    const char *compiler = "unknown";
#endif
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"nproc\": %u, \"compiler\": \"%s\", "
                  "\"compiler_version\": \"%s\", \"build_type\": \"%s\", "
                  "\"simd_backend\": \"%s\"",
                  hostCpus(), compiler, __VERSION__, PERFBENCH_BUILD_TYPE,
                  gpusc::simd::backendName(gpusc::simd::activeBackend())
                      .c_str());
    return buf;
}

} // namespace perfbench
