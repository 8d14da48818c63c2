"""
The audit document of a tampered schedule
=========================================

``relcommit audit --input`` reads a schedule from a file, audits it,
and prints the schedule, the verdict and every violation found as one
JSON object.  Write the canonical ``single`` schedule with one message
hurried so it arrives sooner than light allows, then run that command
on it in process and show what it prints and the exit code it returns
(2: a causality violation was found).
"""

import dataclasses
import os
import tempfile

from relcommit.cli import cli_main
from relcommit.serialize import dumps, schedule_to_json
from relcommit.spacetime import standard_schedule

x, c = 1.0, 1.0
schedule = standard_schedule(x, c, T=10.0, scheme="single")

# The committer's qubit leaves at once for the swap station, one leg
# (x/c) away; make it land after a quarter of that.
messages = list(schedule.messages)
first = messages[0]
messages[0] = dataclasses.replace(first, arrival_time=first.send_time + 0.25 * x / c)
print(f"{first.sender} -> {first.receiver} ({first.channel}) now arrives at "
      f"{messages[0].arrival_time:.2f}, not {first.arrival_time:.2f}")
tampered = dataclasses.replace(schedule, messages=tuple(messages))

with tempfile.TemporaryDirectory() as folder:
    path = os.path.join(folder, "schedule.json")
    with open(path, "w") as out:
        out.write(dumps(schedule_to_json(tampered)))
    print("$ relcommit audit --input schedule.json")
    code = cli_main(["audit", "--input", path])
print(f"exit code: {code}")
