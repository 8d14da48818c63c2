"""
Writing a run stream and reading it back
========================================

Sample a seeded 20-pair string campaign, write its draws as the JSONL
lines ``relcommit run`` prints, and read them back.  Every line repeats
the schedule and most repeat a branch drawn before, so the reader
parses the schedule once and decodes each distinct branch once; what it
returns must still re-serialize to the very bytes that were written.
"""

import io

from relcommit.adversary import Strategy
from relcommit.montecarlo import RunConfig, sample_branches
from relcommit.quantum import BellLabel
from relcommit.serialize import read_transcripts, serialize_transcript, write_draws

# A committer who shifts every announcement by (1,0) is caught on about
# half the pairs, so the stream holds both verdicts and their reasons.
config = RunConfig(scheme="string", n_pairs=20, trials=5, seed=3,
                   strategy=Strategy.relabel_announce(BellLabel(1, 0)))
table, draws = sample_branches(config)
stream = io.StringIO()
lines_per_branch = write_draws(stream, table, draws)
written = stream.getvalue().splitlines()

transcripts = read_transcripts(io.StringIO(stream.getvalue()))
print(f"lines written: {len(written)}, lines read: {len(transcripts)}")
print(f"distinct branches drawn: {sum(n > 0 for n in lines_per_branch)} of {len(table)}")
print(f"accepted pairs: {sum(t.verdict.accept for t in transcripts)}")
same = [serialize_transcript(t) for t in transcripts] == written
print(f"every line re-serializes byte for byte: {same}")
