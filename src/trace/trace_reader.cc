#include "trace/trace_reader.h"

#include "util/logging.h"

namespace gpusc::trace {

namespace {

/** Upper bound on a sane record payload; a corrupted length byte
 *  must not trigger a multi-gigabyte allocation. The largest real
 *  record (TrialBegin) is bounded by the 64 kB string prefix. */
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

} // namespace

TraceReader::~TraceReader()
{
    close();
}

TraceError
TraceReader::open(const std::string &path)
{
    close();
    error_ = TraceError::None;
    records_ = 0;
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return error_ = TraceError::IoOpen;

    // Fixed prefix: magic + version + payload length.
    std::uint8_t prefix[8];
    if (std::fread(prefix, 1, sizeof(prefix), file_) !=
        sizeof(prefix)) {
        close();
        return error_ = TraceError::TruncatedHeader;
    }
    // Validate magic + version before trusting the payload length:
    // a non-trace file must report BadMagic, not a bogus truncation.
    ByteReader pr(prefix, sizeof(prefix));
    if (pr.u32() != kTraceMagic) {
        close();
        return error_ = TraceError::BadMagic;
    }
    const std::uint16_t version = pr.u16();
    if (version < kTraceMinVersion || version > kTraceVersion) {
        close();
        return error_ = TraceError::BadVersion;
    }
    const std::uint16_t payloadLen = pr.u16();

    std::vector<std::uint8_t> block(sizeof(prefix) + payloadLen + 4);
    std::memcpy(block.data(), prefix, sizeof(prefix));
    if (std::fread(block.data() + sizeof(prefix), 1, payloadLen + 4u,
                   file_) != payloadLen + 4u) {
        close();
        return error_ = TraceError::TruncatedHeader;
    }
    ByteReader r(block);
    const TraceError err = decodeHeader(r, header_);
    if (err != TraceError::None) {
        close();
        return error_ = err;
    }
    return TraceError::None;
}

TraceError
TraceReader::next(TraceRecord &out, bool &eof)
{
    eof = false;
    if (!file_)
        return error_ != TraceError::None ? error_
                                          : TraceError::NotOpen;

    std::uint8_t frame[5];
    const std::size_t got = std::fread(frame, 1, sizeof(frame), file_);
    if (got == 0 && std::feof(file_)) {
        eof = true;
        return TraceError::None;
    }
    if (got != sizeof(frame)) {
        close();
        return error_ = TraceError::TruncatedRecord;
    }
    ByteReader fr(frame, sizeof(frame));
    const std::uint8_t kind = fr.u8();
    const std::uint32_t payloadLen = fr.u32();
    if (payloadLen > kMaxRecordPayload) {
        close();
        return error_ = TraceError::BadRecordPayload;
    }

    // Payload and CRC in one read, into a buffer reused across
    // records; the bound above caps it at kMaxRecordPayload + 4.
    buf_.resize(payloadLen + 4u);
    if (std::fread(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
        close();
        return error_ = TraceError::TruncatedRecord;
    }
    ByteReader cr(buf_.data() + payloadLen, 4);
    const std::uint32_t storedCrc = cr.u32();
    const std::uint32_t crc =
        crc32(buf_.data(), payloadLen, crc32(frame, sizeof(frame)));
    if (crc != storedCrc) {
        close();
        return error_ = TraceError::RecordCrcMismatch;
    }

    const TraceError err = decodePayload(kind, buf_.data(), payloadLen,
                                         out, header_.version);
    if (err != TraceError::None) {
        close();
        return error_ = err;
    }
    ++records_;
    return TraceError::None;
}

void
TraceReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceError
TraceReader::verifyFile(const std::string &path,
                        std::uint64_t *recordsOut,
                        TraceHeader *headerOut,
                        std::vector<TraceRecord> *faultsOut)
{
    TraceReader reader;
    TraceError err = reader.open(path);
    if (err != TraceError::None)
        return err;
    if (headerOut)
        *headerOut = reader.header();
    TraceRecord rec;
    bool eof = false;
    while (!eof) {
        err = reader.next(rec, eof);
        if (err != TraceError::None)
            break;
        if (!eof && faultsOut && rec.kind == RecordKind::Fault)
            faultsOut->push_back(rec);
    }
    if (recordsOut)
        *recordsOut = reader.recordCount();
    return err;
}

} // namespace gpusc::trace
