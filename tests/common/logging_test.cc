/** Unit tests for panic/fatal/assert behaviour. */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>

#include "common/logging.hh"

using namespace fp::common;

namespace {

/** Redirect a stream into a buffer for the lifetime of the guard. */
class CaptureStream
{
  public:
    explicit CaptureStream(std::ostream &os)
        : _os(os), _previous(os.rdbuf(_buffer.rdbuf()))
    {}

    ~CaptureStream() { _os.rdbuf(_previous); }

    std::string text() const { return _buffer.str(); }

  private:
    std::ostream &_os;
    std::ostringstream _buffer;
    std::streambuf *_previous;
};

} // namespace

TEST(LoggingTest, PanicThrowsWithMessage)
{
    try {
        fp_panic("bad thing ", 42);
        FAIL() << "panic did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Panic);
        EXPECT_NE(std::string(e.what()).find("bad thing 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("logging_test"),
                  std::string::npos);
    }
}

TEST(LoggingTest, FatalThrowsWithKind)
{
    try {
        fp_fatal("user error");
        FAIL() << "fatal did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Fatal);
        // A fatal reports bad input, not a program bug: the message is
        // the explanation alone, without a source location.
        EXPECT_EQ(std::string(e.what()), "fatal: user error");
        EXPECT_EQ(std::string(e.what()).find(" @ "), std::string::npos);
        EXPECT_EQ(std::string(e.what()).find("logging_test"),
                  std::string::npos);
    }
}

TEST(LoggingTest, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(fp_assert(1 + 1 == 2, "math works"));
}

TEST(LoggingTest, AssertThrowsOnFalse)
{
    try {
        fp_assert(1 == 2, "value was ", 2);
        FAIL() << "assert did not throw";
    } catch (const SimError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("1 == 2"), std::string::npos);
        EXPECT_NE(what.find("value was 2"), std::string::npos);
    }
}

TEST(LoggingTest, ExceptionsToggleIsQueryable)
{
    EXPECT_TRUE(exceptionsEnabled());
    setExceptionsEnabled(true);
    EXPECT_TRUE(exceptionsEnabled());
}

TEST(LoggingTest, WarnAndInformDoNotThrow)
{
    setQuiet(true);
    EXPECT_NO_THROW(fp_warn("warning ", 1));
    EXPECT_NO_THROW(fp_inform("status ", 2));
    setQuiet(false);
}

TEST(LoggingTest, WarnCarriesTickPrefixWhileContextActive)
{
    ScopedTickContext context([]() { return std::uint64_t{12345}; });
    CaptureStream cerr_capture(std::cerr);
    fp_warn("queue overflow");
    std::string text = cerr_capture.text();
    EXPECT_NE(text.find("warn:"), std::string::npos) << text;
    EXPECT_NE(text.find("[tick 12345]"), std::string::npos) << text;
    EXPECT_NE(text.find("queue overflow"), std::string::npos) << text;
}

TEST(LoggingTest, InformCarriesTickPrefixWhileContextActive)
{
    ScopedTickContext context([]() { return std::uint64_t{77}; });
    CaptureStream cout_capture(std::cout);
    fp_inform("phase done");
    std::string text = cout_capture.text();
    EXPECT_NE(text.find("info: [tick 77] phase done"), std::string::npos)
        << text;
}

TEST(LoggingTest, NoTickPrefixWithoutContext)
{
    CaptureStream cerr_capture(std::cerr);
    fp_warn("plain message");
    std::string text = cerr_capture.text();
    EXPECT_NE(text.find("warn: plain message"), std::string::npos) << text;
    EXPECT_EQ(text.find("[tick"), std::string::npos) << text;
}

TEST(LoggingTest, NestedTickContextsRestoreOuterSource)
{
    ScopedTickContext outer([]() { return std::uint64_t{1}; });
    {
        ScopedTickContext inner([]() { return std::uint64_t{2}; });
        CaptureStream cerr_capture(std::cerr);
        fp_warn("inner");
        EXPECT_NE(cerr_capture.text().find("[tick 2]"), std::string::npos);
    }
    CaptureStream cerr_capture(std::cerr);
    fp_warn("outer");
    EXPECT_NE(cerr_capture.text().find("[tick 1]"), std::string::npos);
}
