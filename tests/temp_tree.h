/**
 * @file
 * RAII removal of a test's scratch tree under the system temp dir, so
 * a test leaves nothing behind - also when an ASSERT returns early.
 */

#ifndef AUTOPILOT_TESTS_TEMP_TREE_H
#define AUTOPILOT_TESTS_TEMP_TREE_H

#include <filesystem>
#include <system_error>
#include <utility>

namespace autopilot::fixtures
{

/** Removes @c path and everything under it on destruction. */
class RemoveTreeOnExit
{
  public:
    explicit RemoveTreeOnExit(std::filesystem::path path)
        : path(std::move(path))
    {
    }
    ~RemoveTreeOnExit()
    {
        std::error_code ec; // A destructor must not throw.
        std::filesystem::remove_all(path, ec);
    }

    RemoveTreeOnExit(const RemoveTreeOnExit &) = delete;
    RemoveTreeOnExit &operator=(const RemoveTreeOnExit &) = delete;

  private:
    std::filesystem::path path;
};

} // namespace autopilot::fixtures

#endif // AUTOPILOT_TESTS_TEMP_TREE_H
