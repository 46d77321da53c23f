/**
 * @file
 * Streaming reader for .gpct trace files.
 *
 * The reader validates the header (magic, version, CRC) on open and
 * every record frame's CRC as it streams, so any flipped byte in a
 * trace surfaces as a typed TraceError — truncation, corruption and
 * unknown record kinds are all hard failures, never crashes.
 */

#ifndef GPUSC_TRACE_TRACE_READER_H
#define GPUSC_TRACE_TRACE_READER_H

#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace gpusc::trace {

/** Streams validated records out of a trace file. */
class TraceReader
{
  public:
    TraceReader() = default;
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Open @p path and parse + validate the header. */
    TraceError open(const std::string &path);

    const TraceHeader &header() const { return header_; }

    /**
     * Read the next record. Sets @p eof (with None) at a clean end
     * of file; any mid-file failure is a typed error and poisons the
     * reader (further next() calls return the same error).
     */
    TraceError next(TraceRecord &out, bool &eof);

    void close();

    bool isOpen() const { return file_ != nullptr; }
    std::uint64_t recordCount() const { return records_; }

    /**
     * Scan an entire file, validating every frame.
     * @return None iff the file is fully intact; optionally reports
     * the record count, parsed header and the fault-event records
     * (v2+) encountered along the way.
     */
    static TraceError
    verifyFile(const std::string &path,
               std::uint64_t *recordsOut = nullptr,
               TraceHeader *headerOut = nullptr,
               std::vector<TraceRecord> *faultsOut = nullptr);

  private:
    std::FILE *file_ = nullptr;
    TraceHeader header_{};
    std::uint64_t records_ = 0;
    TraceError error_ = TraceError::None;
    /** One record's payload + CRC; reused so next() never allocates
     *  once it has seen the largest record. */
    std::vector<std::uint8_t> buf_;
};

} // namespace gpusc::trace

#endif // GPUSC_TRACE_TRACE_READER_H
