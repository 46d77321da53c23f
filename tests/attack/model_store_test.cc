/** @file Unit tests for the preloaded model store. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "attack/model_store.h"

namespace gpusc::attack {
namespace {

SignatureModel
namedModel(const std::string &key)
{
    SignatureModel m;
    m.setModelKey(key);
    std::array<double, gpu::kNumSelectedCounters> scale{};
    scale.fill(1.0);
    m.setScale(scale);
    LabelSignature sig;
    sig.label = "a";
    sig.centroid[0] = 123;
    m.addSignature(sig);
    m.setThreshold(1.0);
    return m;
}

TEST(ModelStoreTest, PutAndFind)
{
    ModelStore store;
    store.put(namedModel("cfg/one"));
    store.put(namedModel("cfg/two"));
    EXPECT_EQ(store.size(), 2u);
    ASSERT_NE(store.find("cfg/one"), nullptr);
    EXPECT_EQ(store.find("cfg/one")->modelKey(), "cfg/one");
    EXPECT_EQ(store.find("missing"), nullptr);
}

TEST(ModelStoreTest, PutReplacesSameKey)
{
    ModelStore store;
    store.put(namedModel("cfg"));
    SignatureModel updated = namedModel("cfg");
    updated.setThreshold(9.0);
    store.put(std::move(updated));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_NEAR(store.find("cfg")->threshold(), 9.0, 1e-6);
}

TEST(ModelStoreTest, KeysAndTotalSize)
{
    ModelStore store;
    store.put(namedModel("a"));
    store.put(namedModel("b"));
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(store.totalByteSize(),
              store.find("a")->byteSize() +
                  store.find("b")->byteSize());
}

TEST(ModelStoreTest, SerializeRoundTrip)
{
    ModelStore store;
    store.put(namedModel("alpha"));
    store.put(namedModel("beta"));
    const auto blob = store.serialize();
    const ModelStore back = ModelStore::deserialize(blob);
    EXPECT_EQ(back.size(), 2u);
    ASSERT_NE(back.find("alpha"), nullptr);
    EXPECT_TRUE(*back.find("alpha") == *store.find("alpha"));
}

TEST(ModelStoreTest, SerialisedBytesArePinned)
{
    // Every field of the wire format set to a distinct value; the
    // expected bytes were produced by the serialiser before it moved
    // onto ByteWriter, so any drift in the format shows up here.
    SignatureModel m;
    m.setModelKey("pin");
    m.setThreshold(2.5);
    m.setEchoCutoff(900.0);
    gpu::CounterVec base{}, inc{};
    std::array<double, gpu::kNumSelectedCounters> scale{};
    for (std::size_t d = 0; d < gpu::kNumSelectedCounters; ++d) {
        base[d] = std::int64_t(100 + d);
        inc[d] = -std::int64_t(d);
        scale[d] = 0.001 * double(d + 1);
    }
    m.setEchoLine(base, inc, 12.25);
    m.setScale(scale);
    m.setBlinkVariants({base});
    LabelSignature a;
    a.label = "a";
    a.centroid = base;
    m.addSignature(a);
    LabelSignature shift;
    shift.label = "SHIFT";
    shift.centroid = inc;
    m.addSignature(shift);

    ModelStore store;
    store.put(std::move(m));
    std::string hex;
    for (const std::uint8_t b : store.serialize()) {
        char buf[3];
        std::snprintf(buf, sizeof buf, "%02x", b);
        hex += buf;
    }
    EXPECT_EQ(hex,
              "010000002801000047505347030070696e0000204000006144000044"
              "416400000065000000660000006700000068000000690000006a0000"
              "006b0000006c0000006d0000006e00000000000000fffffffffeffff"
              "fffdfffffffcfffffffbfffffffafffffff9fffffff8fffffff7ffff"
              "fff6ffffff6f12833a6f12033ba69b443b6f12833b0ad7a33ba69bc4"
              "3b4260e53b6f12033cbc74133c0ad7233c5839343c01640000006500"
              "0000660000006700000068000000690000006a0000006b0000006c00"
              "00006d0000006e000000020001616400000065000000660000006700"
              "000068000000690000006a0000006b0000006c0000006d0000006e00"
              "000005534849465400000000fffffffffefffffffdfffffffcffffff"
              "fbfffffffafffffff9fffffff8fffffff7fffffff6ffffff");
}

TEST(ModelStoreTest, FileRoundTrip)
{
    ModelStore store;
    store.put(namedModel("persisted"));
    const std::string path = ::testing::TempDir() + "gpusc_store.bin";
    ASSERT_TRUE(store.saveToFile(path));
    const ModelStore back = ModelStore::loadFromFile(path);
    EXPECT_EQ(back.size(), 1u);
    EXPECT_NE(back.find("persisted"), nullptr);
    std::remove(path.c_str());
}

TEST(ModelStoreTest, SaveToBadPathFails)
{
    ModelStore store;
    EXPECT_FALSE(store.saveToFile("/nonexistent-dir/x/y/z.bin"));
}

TEST(ModelStoreTest, TruncatedBlobYieldsEmptyStore)
{
    ModelStore store;
    store.put(namedModel("alpha"));
    std::vector<std::uint8_t> blob = store.serialize();
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
        const std::vector<std::uint8_t> partial(
            blob.begin(), blob.begin() + long(cut));
        EXPECT_FALSE(ModelStore::tryDeserialize(partial).has_value())
            << "prefix of " << cut << " bytes parsed as valid";
    }
    // The non-try variant degrades to an empty store, never aborts.
    const std::vector<std::uint8_t> chopped(blob.begin(),
                                            blob.begin() + 8);
    EXPECT_EQ(ModelStore::deserialize(chopped).size(), 0u);
}

TEST(ModelStoreTest, GarbageBlobYieldsEmptyStore)
{
    const std::vector<std::uint8_t> garbage(64, 0xab);
    EXPECT_FALSE(ModelStore::tryDeserialize(garbage).has_value());
    EXPECT_EQ(ModelStore::deserialize(garbage).size(), 0u);
}

TEST(ModelStoreTest, TrailingGarbageIsRejected)
{
    ModelStore store;
    store.put(namedModel("alpha"));
    std::vector<std::uint8_t> blob = store.serialize();
    blob.push_back(0x00);
    EXPECT_FALSE(ModelStore::tryDeserialize(blob).has_value());
}

TEST(ModelStoreTest, MissingFileYieldsEmptyStore)
{
    EXPECT_FALSE(
        ModelStore::tryLoadFromFile("/nonexistent/store.bin")
            .has_value());
    EXPECT_EQ(
        ModelStore::loadFromFile("/nonexistent/store.bin").size(),
        0u);
}

TEST(ModelStoreTest, AnyFlippedFileByteIsDetected)
{
    ModelStore store;
    store.put(namedModel("alpha"));
    store.put(namedModel("beta"));
    const std::string path =
        ::testing::TempDir() + "gpusc_store_corrupt.bin";
    ASSERT_TRUE(store.saveToFile(path));

    std::vector<std::uint8_t> clean;
    {
        FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::uint8_t buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            clean.insert(clean.end(), buf, buf + n);
        std::fclose(f);
    }
    ASSERT_FALSE(clean.empty());

    // The CRC envelope catches a flip of any byte in the file: the
    // load must come back empty instead of crashing or silently
    // returning damaged models.
    for (std::size_t i = 0; i < clean.size(); ++i) {
        std::vector<std::uint8_t> bad = clean;
        bad[i] ^= 0x5a;
        FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f),
                  bad.size());
        std::fclose(f);
        EXPECT_FALSE(ModelStore::tryLoadFromFile(path).has_value())
            << "flipped byte " << i << " went undetected";
    }
    std::remove(path.c_str());
}

TEST(ModelStoreTest, InPlaceUpdatedModelSurvivesEvictionAndReload)
{
    // The streaming service adapts a session's model copy in place
    // (SignatureModel::updateSignature) and a deployment persists the
    // adapted model by putting it back into the store. Evicting that
    // store to disk and reloading must reproduce the adapted
    // centroids byte for byte.
    SignatureModel m = namedModel("adapted");
    gpu::CounterVec obs{};
    obs.fill(500);
    ASSERT_TRUE(m.updateSignature("a", obs, 0.25));
    const std::int64_t adapted = m.signatures()[0].centroid[0];
    EXPECT_NE(adapted, 123); // the update actually moved it

    ModelStore store;
    store.put(m);
    const std::vector<std::uint8_t> pinned =
        store.find("adapted")->serialize();

    const std::string path =
        ::testing::TempDir() + "gpusc_store_adapted.bin";
    ASSERT_TRUE(store.saveToFile(path));
    const ModelStore back = ModelStore::loadFromFile(path);
    ASSERT_NE(back.find("adapted"), nullptr);
    EXPECT_TRUE(*back.find("adapted") == m);
    EXPECT_EQ(back.find("adapted")->signatures()[0].centroid[0],
              adapted);
    // CRC pin: the reloaded model re-serialises to identical bytes.
    EXPECT_EQ(back.find("adapted")->serialize(), pinned);
    std::remove(path.c_str());
}

TEST(ModelStoreTest, InPlaceUpdatePreservesSerialisedSize)
{
    // put()-back of an adapted model must never change the store's
    // size accounting: updates move centroid values, not layout.
    SignatureModel m = namedModel("sized");
    ModelStore store;
    store.put(m);
    const std::size_t before = store.totalByteSize();
    gpu::CounterVec obs{};
    obs.fill(999999);
    ASSERT_TRUE(m.updateSignature("a", obs, 1.0));
    store.put(m);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.totalByteSize(), before);
}

TEST(ModelStoreTest, CorruptedAdaptedStoreIsRejectedOnReload)
{
    // The CRC envelope protects adapted models exactly like trained
    // ones: flip one byte of the persisted file and the reload must
    // come back empty instead of yielding a silently damaged model.
    SignatureModel m = namedModel("guarded");
    gpu::CounterVec obs{};
    obs.fill(321);
    ASSERT_TRUE(m.updateSignature("a", obs, 0.5));
    ModelStore store;
    store.put(m);
    const std::string path =
        ::testing::TempDir() + "gpusc_store_guarded.bin";
    ASSERT_TRUE(store.saveToFile(path));

    FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    std::uint8_t byte = 0;
    ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
    byte ^= 0x5a;
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
    std::fclose(f);
    EXPECT_FALSE(ModelStore::tryLoadFromFile(path).has_value());
    std::remove(path.c_str());
}

TEST(ModelStoreTest, GetOrTrainCachesByConfiguration)
{
    ModelStore store;
    const OfflineTrainer trainer(OfflineTrainer::Params{
        .repetitions = 2,
        .thresholdMargin = 2.5,
        .pressDuration = SimTime::fromMs(120)});
    android::DeviceConfig cfg;
    cfg.keyboard = "go"; // smallest duplication/animation surface
    const SignatureModel &first = store.getOrTrain(cfg, trainer);
    EXPECT_EQ(store.size(), 1u);
    const SignatureModel &second = store.getOrTrain(cfg, trainer);
    EXPECT_EQ(&first, &second); // trained exactly once
}

TEST(ModelStoreTest, OneFrameMemoPerConfigurationNeverSerialised)
{
    ModelStore store;
    const OfflineTrainer trainer(OfflineTrainer::Params{
        .repetitions = 1,
        .thresholdMargin = 2.5,
        .pressDuration = SimTime::fromMs(120)});
    android::DeviceConfig a;
    a.keyboard = "go";
    EXPECT_EQ(store.frameMemo(a), nullptr);
    store.getOrTrain(a, trainer);
    const std::shared_ptr<gpu::FrameMemo> memo = store.frameMemo(a);
    ASSERT_NE(memo, nullptr);

    // A device seed is not part of the configuration: same memo ...
    android::DeviceConfig seeded = a;
    seeded.seed = a.seed + 1;
    store.getOrTrain(seeded, trainer);
    EXPECT_EQ(store.frameMemo(seeded), memo);
    // ... while another configuration, on this GPU or another one,
    // gets its own.
    android::DeviceConfig b = a;
    b.app = "amex";
    EXPECT_EQ(store.frameMemo(b), nullptr);
    store.getOrTrain(b, trainer);
    ASSERT_NE(store.frameMemo(b), nullptr);
    EXPECT_NE(store.frameMemo(b), memo);
    android::DeviceConfig c = a;
    c.phone = "pixel2";
    store.getOrTrain(c, trainer);
    ASSERT_NE(store.frameMemo(c), nullptr);
    EXPECT_NE(store.frameMemo(c), memo);

    // The memo is process state, not part of the store's bytes.
    const ModelStore back = ModelStore::deserialize(store.serialize());
    EXPECT_EQ(back.size(), 3u);
    EXPECT_EQ(back.frameMemo(a), nullptr);
}

} // namespace
} // namespace gpusc::attack
