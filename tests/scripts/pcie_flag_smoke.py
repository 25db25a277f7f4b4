#!/usr/bin/env python3
"""End-to-end check of fptrace's flag validation.

replay, profile and racecheck accept exactly --pcie 3|4|5|6. Any other
value must exit 2 (the usage code in the exit-code legend) with usage
text on stderr instead of silently simulating PCIe 4.0; a valid value
must run and name the generation it simulated.

generate accepts --scale, --gpus and --seed only as one whole number in
range. A bad value must exit 2 with usage text instead of dying on a
signal, aborting, or running with a silent default; valid edge values
must generate a trace. A problem too small for its GPU count must
exit 2 naming the smallest scale that works, and a ct trace over the
store budget naming the largest GPU count that fits.

The numeric flags of replay, profile and racecheck follow the same
rule (--flight-recorder=N included), and any flag that takes a value
exits 2 with usage text when it is the last word on the command line.

A corrupted trace is bad input too: info and replay of a trace whose
first store count is 2^40, that is cut in half, or whose GPU count is
one more than its iterations list, exit 1 with a fatal message naming
the byte offset, instead of aborting, panicking or indexing past the
GPUs the trace holds.

Usage: pcie_flag_smoke.py <fptrace-binary>

Stdlib only; registered with ctest from tests/CMakeLists.txt. Exits
nonzero with a diagnostic on the first failed expectation.
"""

import os
import struct
import subprocess
import sys
import tempfile


# (flags, expected exit code[, text stderr must hold]) for generate.
# Every case generates jacobi at --scale 0.01 --gpus 2 apart from the
# flags it sets.
GENERATE_CASES = [
    ({"--gpus": "0"}, 2),
    ({"--gpus": "-3"}, 2),
    ({"--gpus": "4x"}, 2),
    ({"--gpus": "1025"}, 2),
    ({"--gpus": "4294967296"}, 2),
    ({"--gpus": ""}, 2),
    ({"--scale": "-1"}, 2),
    ({"--scale": "0"}, 2),
    ({"--scale": "nan"}, 2),
    ({"--scale": "inf"}, 2),
    ({"--scale": "1e400"}, 2),
    ({"--scale": "abc"}, 2),
    ({"--scale": " 0.01"}, 2),
    ({"--seed": "abc"}, 2),
    ({"--seed": "-1"}, 2),
    ({"--seed": "+7"}, 2),
    ({"--seed": "18446744073709551616"}, 2),
    ({"--gpus": "1"}, 0),
    ({"--gpus": "16"}, 0),
    ({"--scale": "1e-6"}, 0),
    ({"--seed": "0"}, 0),
    ({"--seed": "18446744073709551615"}, 0),
    # Valid flags, but too few rows for every GPU to hold a line.
    ({"--gpus": "1024", "--scale": "1e-6"}, 2,
     "jacobi is too small for 1024 GPUs at scale 1e-06; the smallest"
     " scale that works is 0.0625"),
    ({"--gpus": "1024", "--scale": "0.0625"}, 0),
]

# Byte offsets in the tiny (v2) trace. The GPU count follows the
# 24-byte header (magic, version, byte-order mark, total length) and
# "jacobi" and "peer-to-peer" with their lengths; the first store count
# follows it, the iteration count, iteration 0's GPU count and GPU 0's
# three work fields.
GPU_COUNT = 50
FIRST_STORE_COUNT = 86


def patched(b, offset, fmt, value):
    """b with the field at offset packed as fmt holding value."""
    return b[:offset] + struct.pack(fmt, value) \
        + b[offset + struct.calcsize(fmt):]


# (name, corruption of the tiny trace's bytes, text stderr must hold).
CORRUPT_CASES = [
    ("store count 2^40",
     lambda b: patched(b, FIRST_STORE_COUNT, "<Q", 1 << 40),
     "count 1099511627776 at byte 86"),
    ("cut in half", lambda b: b[:len(b) // 2], "at byte "),
    ("GPU count 3", lambda b: patched(b, GPU_COUNT, "<I", 3),
     "GPU count 2 at byte 58 is not the trace's 3 GPUs"),
]

# (command, flags, expected exit code) run against the tiny trace.
COMMAND_CASES = [
    ("replay", ["--sample-ns"], 2),
    ("replay", ["--paradigm"], 2),
    ("replay", ["--sample-ns", "abc"], 2),
    ("replay", ["--sample-ns", "0"], 2),
    ("replay", ["--fabric-window-ns", "1e3"], 2),
    ("replay", ["--fabric-window-ns", "86400000000001"], 2),
    ("replay", ["--heartbeat-ns", "abc"], 2),
    ("replay", ["--stall-ns", "-1"], 2),
    ("replay", ["--wedge-ms", "86400001"], 2),
    ("replay", ["--wedge-ms"], 2),
    ("profile", ["--reps", "abc"], 2),
    ("profile", ["--reps", "-3"], 2),
    ("profile", ["--reps", "0"], 2),
    ("profile", ["--top", "x"], 2),
    ("profile", ["--json"], 2),
    ("racecheck", ["--seeds", "0"], 2),
    ("racecheck", ["--seeds", "4x"], 2),
    ("racecheck", ["--waive"], 2),
    ("replay", ["--flight-recorder=abc"], 2),
    ("replay", ["--flight-recorder=0"], 2),
    ("replay", ["--flight-recorder=-4"], 2),
    ("replay", ["--flight-recorder="], 2),
    ("profile", ["--flight-recorder=1048577"], 2),
    ("racecheck", ["--flight-recorder=16x"], 2),
    ("replay", ["--flight-recorder=1"], 0),
    ("replay", ["--flight-recorder=1048576"], 0),
    ("replay", ["--sample-ns", "1",
                "--fabric-window-ns", "86400000000000"], 0),
    ("profile", ["--reps", "1", "--top", "0"], 0),
    ("racecheck", ["--seeds", "1", "--stall-ns", "0"], 0),
]


def fail(message):
    print("pcie_flag_smoke: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(args):
    return subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def main():
    if len(sys.argv) != 2:
        print("usage: pcie_flag_smoke.py <fptrace-binary>", file=sys.stderr)
        return 2
    fptrace = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "tiny.fpt")
        result = run([fptrace, "generate", "jacobi", trace,
                      "--scale", "0.01", "--gpus", "2"])
        if result.returncode != 0:
            fail("trace generation failed: " + result.stderr)

        for overrides, expected, *message in GENERATE_CASES:
            flags = {"--scale": "0.01", "--gpus": "2", **overrides}
            out = os.path.join(tmp, "case.fpt")
            args = [fptrace, "generate", "jacobi", out]
            for name, text in flags.items():
                args += [name, text]
            result = run(args)
            case = "generate " + " ".join(
                "%s '%s'" % item for item in overrides.items())
            if result.returncode != expected:
                fail("%s exited %d, expected %d\n%s%s"
                     % (case, result.returncode, expected,
                        result.stdout, result.stderr))
            if expected == 2 and "usage:" not in result.stderr:
                fail("%s printed no usage text:\n%s"
                     % (case, result.stderr))
            if message and message[0] not in result.stderr:
                fail("%s did not say '%s':\n%s"
                     % (case, message[0], result.stderr))
            if expected == 0 and os.path.getsize(out) == 0:
                fail("%s wrote an empty trace" % case)

        # ct's trace grows as GPUs squared: over the store budget,
        # generate refuses before it builds anything. (The largest
        # count that fits is checked in-process, not generated.)
        result = run([fptrace, "generate", "ct",
                      os.path.join(tmp, "ct.fpt"),
                      "--gpus", "1024", "--scale", "1e-6"])
        if result.returncode != 2 or "usage:" not in result.stderr \
                or "the largest GPU count that fits is 60" \
                not in result.stderr:
            fail("generate ct --gpus 1024 --scale 1e-6 exited %d, "
                 "expected 2 with usage text naming 60 GPUs\n%s%s"
                 % (result.returncode, result.stdout, result.stderr))

        for command, flags, expected in COMMAND_CASES:
            result = run([fptrace, command, trace] + flags)
            case = "%s %s" % (command, " ".join(flags))
            if result.returncode != expected:
                fail("%s exited %d, expected %d\n%s%s"
                     % (case, result.returncode, expected,
                        result.stdout, result.stderr))
            if expected == 2 and "usage:" not in result.stderr:
                fail("%s printed no usage text:\n%s"
                     % (case, result.stderr))

        with open(trace, "rb") as f:
            good = f.read()
        for name, corrupt, text in CORRUPT_CASES:
            bad_trace = os.path.join(tmp, "bad.fpt")
            with open(bad_trace, "wb") as f:
                f.write(corrupt(good))
            for command in (["info"], ["replay"],
                            ["replay", "--paradigm", "p2p-stores"]):
                result = run([fptrace] + command[:1] + [bad_trace]
                             + command[1:])
                case = "%s of a trace with its %s" % (" ".join(command),
                                                      name)
                if result.returncode != 1:
                    fail("%s exited %d, expected 1\n%s%s"
                         % (case, result.returncode,
                            result.stdout, result.stderr))
                if "fatal: trace " not in result.stderr \
                        or text not in result.stderr:
                    fail("%s did not say 'fatal: trace ...%s':\n%s"
                         % (case, text, result.stderr))

        for command in ("replay", "profile", "racecheck"):
            for bad in ("9", "abc"):
                result = run([fptrace, command, trace, "--pcie", bad])
                if result.returncode != 2:
                    fail("%s --pcie %s exited %d, expected 2\n%s%s"
                         % (command, bad, result.returncode,
                            result.stdout, result.stderr))
                if "usage:" not in result.stderr:
                    fail("%s --pcie %s printed no usage text:\n%s"
                         % (command, bad, result.stderr))

        for command in ("replay", "profile"):
            result = run([fptrace, command, trace, "--pcie", "6",
                          "--paradigm", "p2p-stores"])
            if result.returncode != 0:
                fail("%s --pcie 6 exited %d:\n%s"
                     % (command, result.returncode, result.stderr))
            if "PCIe 6.0" not in result.stdout:
                fail("%s --pcie 6 did not report PCIe 6.0:\n%s"
                     % (command, result.stdout))
    print("pcie_flag_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
