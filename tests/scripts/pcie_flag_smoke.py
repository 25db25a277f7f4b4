#!/usr/bin/env python3
"""End-to-end check of fptrace's flag validation.

replay, profile and racecheck accept exactly --pcie 3|4|5|6. Any other
value must exit 2 (the usage code in the exit-code legend) with usage
text on stderr instead of silently simulating PCIe 4.0; a valid value
must run and name the generation it simulated.

generate accepts --scale, --gpus and --seed only as one whole number in
range. A bad value must exit 2 with usage text instead of dying on a
signal, aborting, or running with a silent default; valid edge values
must generate a trace.

The numeric flags of replay, profile and racecheck follow the same
rule (--flight-recorder=N included), and any flag that takes a value
exits 2 with usage text when it is the last word on the command line.

Usage: pcie_flag_smoke.py <fptrace-binary>

Stdlib only; registered with ctest from tests/CMakeLists.txt. Exits
nonzero with a diagnostic on the first failed expectation.
"""

import os
import subprocess
import sys
import tempfile


# (flag, value, expected exit code) for generate. Every case generates
# jacobi at --scale 0.01 --gpus 2 apart from the flag it sets.
GENERATE_CASES = [
    ("--gpus", "0", 2),
    ("--gpus", "-3", 2),
    ("--gpus", "4x", 2),
    ("--gpus", "1025", 2),
    ("--gpus", "4294967296", 2),
    ("--gpus", "", 2),
    ("--scale", "-1", 2),
    ("--scale", "0", 2),
    ("--scale", "nan", 2),
    ("--scale", "inf", 2),
    ("--scale", "1e400", 2),
    ("--scale", "abc", 2),
    ("--scale", " 0.01", 2),
    ("--seed", "abc", 2),
    ("--seed", "-1", 2),
    ("--seed", "+7", 2),
    ("--seed", "18446744073709551616", 2),
    ("--gpus", "1", 0),
    ("--gpus", "16", 0),
    ("--scale", "1e-6", 0),
    ("--seed", "0", 0),
    ("--seed", "18446744073709551615", 0),
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

        for flag, value, expected in GENERATE_CASES:
            flags = {"--scale": "0.01", "--gpus": "2", flag: value}
            out = os.path.join(tmp, "case.fpt")
            args = [fptrace, "generate", "jacobi", out]
            for name, text in flags.items():
                args += [name, text]
            result = run(args)
            case = "generate %s '%s'" % (flag, value)
            if result.returncode != expected:
                fail("%s exited %d, expected %d\n%s%s"
                     % (case, result.returncode, expected,
                        result.stdout, result.stderr))
            if expected == 2 and "usage:" not in result.stderr:
                fail("%s printed no usage text:\n%s"
                     % (case, result.stderr))
            if expected == 0 and os.path.getsize(out) == 0:
                fail("%s wrote an empty trace" % case)

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
