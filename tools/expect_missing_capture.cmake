# replay_verify on a capture that does not exist must exit 2 and print one
# line naming the capture, not a failed-check dump.
#   cmake -DREPLAY_VERIFY=<replay_verify binary> -P expect_missing_capture.cmake
# (run from the repository root, where the committed golden lives).
execute_process(
  COMMAND ${REPLAY_VERIFY} no-such-capture.trace failure/ssr+mitigation
          tests/golden/failure_recovery.golden
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR err MATCHES "check failed" OR
   NOT err MATCHES "^replay_verify: [^\n]*no-such-capture\\.trace\n$")
  message(FATAL_ERROR "want exit 2 and one line naming the capture, got "
                      "${rc}: ${err}")
endif()
