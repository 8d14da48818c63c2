"""
Scanning the strategy space
===========================

Run the built-in committer and receiver strategy menus against one
configuration and print the report table.  Every probability in the
table is computed twice, by state-vector enumeration and by label
algebra, and the two must agree to 1e-12 or the scan aborts.
"""

import dataclasses

from relcommit.adversary import build_report
from relcommit.cli import render_report_table
from relcommit.protocol import SchemeParams

# Mode R2: the validator holds the true teleport correction.  This is
# the reading under which the published binding claims come out right.
params = SchemeParams("single", validation_mode="R2")
print(render_report_table(build_report(params)))
print()

# Mode R1: the validator recomputes the correction from the committer's
# own announcement.  The announced frame then cancels out of the check
# and every relabeling sails through: acceptance 1.0 across the board,
# flagged as NO against the R2-style claims.  The mode is part of the
# scheme parameters, so the R1 scan runs on an R1 copy of them.
r1_params = dataclasses.replace(params, validation_mode="R1")
print(render_report_table(build_report(r1_params)))
print()

# The uniform four-state probe policy (the string scheme's default)
# softens the fixed-probe blind spot: the sign flip (1,0) that a fixed
# Z probe never sees is now caught half the time.  Note the joint flip
# (1,1): the blanket one-half claim does not apply to it; both probe
# families catch it, so its acceptance is exactly zero and the row is
# flagged.
string_params = SchemeParams("string", n_pairs=1, validation_mode="R2")
print(render_report_table(build_report(string_params)))
