/**
 * @file
 * What a result was measured on: host, toolchain, build and the SIMD
 * backend the classify kernels dispatched to.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <string>

namespace perfbench {

/** Host and build metadata as the body of a JSON object. */
std::string hostJsonFields();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
